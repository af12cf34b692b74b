package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/policy"
	"gsched/internal/profile"
	"gsched/internal/stream"
	"gsched/internal/xform"
)

// Request is the JSON body of POST /schedule.
type Request struct {
	// Lang is "c" (mini-C, the default), or "asm" or "s" (assembly).
	Lang string `json:"lang,omitempty"`
	// Source is the program text.
	Source string `json:"source"`
	// Machine is either a preset name string ("rs6k", "scalar", "wide",
	// or "NxM" for N fixed and M branch units) or a full machine.Desc
	// object. Empty means rs6k.
	Machine json.RawMessage `json:"machine,omitempty"`
	// Level is "none", "useful", "speculative" (the default), "dup"
	// (speculative plus Definition-6 duplication and, with a Profile,
	// superblock formation) or "optimal". level=optimal answers 202 with
	// the speculative schedule immediately plus async job metadata; poll
	// GET /jobs/{id} for the exact result.
	Level string `json:"level,omitempty"`
	// Profile is an edge profile in the canonical text form
	// ("gsched-profile v1" header, "<func> <instrID> <taken> <notTaken>"
	// lines). It gates speculation by measured branch probability and
	// drives superblock formation at level=dup, so its canonical form is
	// part of the content-addressed cache key.
	Profile string `json:"profile,omitempty"`
	// Policy is a scheduling-policy program (internal/policy source)
	// replacing the built-in §5.2 priority order and, when it carries a
	// gate clause, filtering speculative candidates. The policy's
	// canonical form is part of the content-addressed cache key, so
	// equivalent spellings share a cache entry and different policies
	// never collide.
	Policy string `json:"policy,omitempty"`
	// Pipeline selects the full §6 unroll/rotate pipeline (default
	// true); false runs plain renaming + global scheduling + post-pass.
	Pipeline *bool `json:"pipeline,omitempty"`
	// Verify re-checks the schedule with the independent legality
	// verifier; an illegal schedule turns into a 422.
	Verify bool `json:"verify,omitempty"`
	// Options overrides individual scheduling options.
	Options *OptionsPatch `json:"options,omitempty"`
	// Simulate, when set, also runs the scheduled program on the
	// simulated machine and returns cycles/result.
	Simulate *SimRequest `json:"simulate,omitempty"`
	// TimeoutMs overrides the server's per-request scheduling budget
	// when positive. Fractional values are honoured (0.5 = 500µs).
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
	// DebugPanic makes the worker panic mid-request, exercising the
	// panic-to-500 recovery path. Honoured only when the server was
	// started with the debug-panic flag; ignored otherwise.
	DebugPanic bool `json:"debug_panic,omitempty"`
}

// OptionsPatch overrides individual fields of the level's default
// core.Options. Nil fields keep the default.
type OptionsPatch struct {
	Rename          *bool    `json:"rename,omitempty"`
	LocalPass       *bool    `json:"local_pass,omitempty"`
	SpecDegree      *int     `json:"spec_degree,omitempty"`
	MinSpecProb     *float64 `json:"min_spec_prob,omitempty"`
	Duplicate       *bool    `json:"duplicate,omitempty"`
	SpeculateLoads  *bool    `json:"speculate_loads,omitempty"`
	MaxRegionBlocks *int     `json:"max_region_blocks,omitempty"`
	MaxRegionInstrs *int     `json:"max_region_instrs,omitempty"`
	MaxRegionLevels *int     `json:"max_region_levels,omitempty"`
	ExactMaxBlock   *int     `json:"exact_max_block,omitempty"`
	ExactNodes      *int     `json:"exact_nodes,omitempty"`
}

// SimRequest asks for a simulated run of the scheduled program.
type SimRequest struct {
	Entry string  `json:"entry"`
	Args  []int64 `json:"args,omitempty"`
}

// Response is the JSON body of a successful /schedule reply. Identical
// requests produce byte-identical bodies, whether computed or served
// from the cache (the X-Cache header tells them apart).
type Response struct {
	// Asm is the scheduled program in parseable assembly.
	Asm string `json:"asm"`
	// Stats reports what the scheduler did.
	Stats xform.Stats `json:"stats"`
	// Sim is present when the request asked for simulation.
	Sim *SimResponse `json:"sim,omitempty"`
}

// SimResponse reports a simulated run.
type SimResponse struct {
	Ret     int64   `json:"ret"`
	Cycles  int64   `json:"cycles"`
	Instrs  int64   `json:"instrs"`
	Printed []int64 `json:"printed,omitempty"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// asyncResponse is the 202 body of POST /schedule with level=optimal.
// Heuristic holds, byte for byte, the Response the same request would
// have produced at level=speculative (both go through the same serving
// pipeline and cache entry); Job names the queued exact run.
type asyncResponse struct {
	Heuristic json.RawMessage `json:"heuristic"`
	Job       jobInfo         `json:"job"`
}

// jobInfo identifies one async exact job.
type jobInfo struct {
	// ID is the job's content-addressed identity (the hex response
	// cache key). Identical requests share one ID and one job.
	ID string `json:"id"`
	// Status is "queued", "running", "done" or "failed".
	Status string `json:"status"`
	// Poll is the path to poll: "/jobs/{id}".
	Poll string `json:"poll"`
}

// jobResponse is the body of GET /jobs/{id}.
type jobResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Result carries the finished Response (same shape as a synchronous
	// /schedule body) once Status is "done".
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the failure diagnostic once Status is "failed".
	// Failed jobs are retriable: resubmitting the original request
	// re-enqueues the job.
	Error string `json:"error,omitempty"`
}

// batchRequest is the JSON body of POST /schedule/batch: several
// independent scheduling units submitted at once. Units share the
// worker pool, the response cache and the single-flight machinery, so
// a batch of identical units costs one pipeline run.
type batchRequest struct {
	Units []Request `json:"units"`
}

// batchResult is the outcome of one batch unit. Body is byte-identical
// to what POST /schedule would have returned for the same unit (both
// paths share the serving pipeline), with the unit's HTTP status and
// cache disposition lifted into fields.
type batchResult struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// batchResponse is the JSON body of a /schedule/batch reply; Results
// aligns index-for-index with the request's Units.
type batchResponse struct {
	Results []batchResult `json:"results"`
}

// job is a fully resolved request: parsed program, machine, options.
type job struct {
	prog     *ir.Program
	mach     *machine.Desc
	opts     core.Options
	pipeline bool
	simulate *SimRequest
	key      cacheKey
	canon    []byte        // canonical input assembly, rendered once at resolve
	timeout  time.Duration // 0 = server default
	panicd   bool          // debug-panic requested and allowed
	missed   bool          // the key memo's store lookup already missed
}

// badRequest is a client error with an HTTP-facing diagnostic.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// resolve parses and validates a request into a runnable job, computing
// its content-address from the canonicalized program, machine and
// options. Canonicalization happens on the freshly parsed (unscheduled)
// program, so any two sources that compile to EqualPrograms-equal IR
// share a cache entry.
func resolve(req *Request, allowPanic bool) (*job, error) {
	if strings.TrimSpace(req.Source) == "" {
		return nil, badf("empty source")
	}
	j := &job{pipeline: true, simulate: req.Simulate}

	lang := req.Lang
	if lang == "" {
		lang = "c"
	}
	d, err := stream.DialectFor(lang)
	if err != nil {
		return nil, badf("%v", err)
	}
	// The dialect's streaming reader parses one function at a time
	// (parse allocations stay proportional to the largest function);
	// the program is materialized because canonicalization, caching and
	// simulation all need the whole unit.
	if j.prog, err = asm.ReadProgram(d, req.Source); err != nil {
		return nil, badf("parse: %v", err)
	}

	j.mach, err = resolveMachine(req.Machine)
	if err != nil {
		return nil, err
	}

	lv := core.LevelSpeculative
	if req.Level != "" {
		if lv, err = core.ParseLevel(req.Level); err != nil {
			return nil, badf("%v", err)
		}
	}

	j.opts = core.Defaults(j.mach, lv)
	j.opts.Verify = req.Verify
	j.opts.Parallelism = 1 // concurrency comes from the worker pool
	if req.Profile != "" {
		prof, err := profile.Parse(req.Profile)
		if err != nil {
			return nil, badf("profile: %v", err)
		}
		if prof.Len() > 0 {
			// A profile with no samples is indistinguishable from no
			// profile; normalizing to nil keeps the cache key aligned
			// with what the scheduler actually sees.
			j.opts.Profile = prof
		}
	}
	if req.Policy != "" {
		pol, err := policy.Parse(req.Policy)
		if err != nil {
			return nil, badf("%v", err)
		}
		j.opts.Policy = pol
	}
	if p := req.Options; p != nil {
		setIf(&j.opts.Rename, p.Rename)
		setIf(&j.opts.LocalPass, p.LocalPass)
		setIf(&j.opts.SpecDegree, p.SpecDegree)
		setIf(&j.opts.MinSpecProb, p.MinSpecProb)
		setIf(&j.opts.Duplicate, p.Duplicate)
		setIf(&j.opts.SpeculateLoads, p.SpeculateLoads)
		setIf(&j.opts.MaxRegionBlocks, p.MaxRegionBlocks)
		setIf(&j.opts.MaxRegionInstrs, p.MaxRegionInstrs)
		setIf(&j.opts.MaxRegionLevels, p.MaxRegionLevels)
		setIf(&j.opts.ExactMaxBlock, p.ExactMaxBlock)
		setIf(&j.opts.ExactNodes, p.ExactNodes)
	}
	if req.Pipeline != nil {
		j.pipeline = *req.Pipeline
	}
	if req.TimeoutMs > 0 {
		j.timeout = time.Duration(req.TimeoutMs * float64(time.Millisecond))
		if j.timeout <= 0 {
			j.timeout = time.Nanosecond
		}
	}
	j.panicd = req.DebugPanic && allowPanic
	var buf bytes.Buffer
	asm.CanonicalTo(&buf, j.prog)
	j.canon = buf.Bytes()
	j.key = contentKey(j)
	return j, nil
}

func setIf[T any](dst *T, src *T) {
	if src != nil {
		*dst = *src
	}
}

// resolveMachine accepts a preset name (JSON string) or a full Desc
// (JSON object); empty means rs6k.
func resolveMachine(raw json.RawMessage) (*machine.Desc, error) {
	if len(raw) == 0 {
		return machine.RS6K(), nil
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		if name == "" {
			return machine.RS6K(), nil
		}
		d, err := machine.ByName(name)
		if err != nil {
			return nil, badf("%v", err)
		}
		return d, nil
	}
	var d machine.Desc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, badf("machine: %v", err)
	}
	if d.Name == "" {
		d.Name = "custom"
	}
	if err := d.Validate(); err != nil {
		return nil, badf("machine: %v", err)
	}
	return &d, nil
}

// contentKey hashes everything that can change the response body:
// the canonical program, the canonical machine, the semantic scheduling
// options, the canonical edge profile (which gates speculation and
// drives superblock formation, so two requests differing only in
// profile must not share a cache entry), and the canonical scheduling
// policy (which reorders the ready list, so likewise). The machine and options stream
// straight into the digest (CanonicalTo / canonOptionsTo); the
// program's canonical text was rendered once at resolve time because
// the panic reproducer needs it too. Parallelism is deliberately
// excluded (schedules are pinned identical at every setting); the
// Verify flag is included because it changes which requests fail.
func contentKey(j *job) cacheKey {
	h := sha256.New()
	h.Write(j.canon)
	h.Write([]byte{0})
	j.mach.CanonicalTo(h)
	h.Write([]byte{0})
	canonOptionsTo(h, &j.opts, j.pipeline)
	if j.opts.Profile != nil && j.opts.Profile.Len() > 0 {
		h.Write([]byte("\x00profile=\n"))
		h.Write(j.opts.Profile.AppendCanonical(nil))
	}
	if j.opts.Policy != nil {
		h.Write([]byte("\x00policy=\n"))
		io.WriteString(h, j.opts.Policy.Canonical())
	}
	if j.simulate != nil {
		fmt.Fprintf(h, "\x00sim=%s%v", j.simulate.Entry, j.simulate.Args)
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// canonOptionsTo renders the scalar scheduling options deterministically
// into w (typically a hash). Trace and Parallelism are excluded: neither
// can change the emitted schedule. The Profile — which can — is hashed
// separately by contentKey in its canonical text form.
func canonOptionsTo(w io.Writer, o *core.Options, pipeline bool) {
	fmt.Fprintf(w,
		"level=%s local=%t rename=%t spec=%d minprob=%g dup=%t loads=%t rb=%d ri=%d rl=%d verify=%t pipeline=%t exact_mb=%d exact_nodes=%d",
		o.Level, o.LocalPass, o.Rename, o.SpecDegree, o.MinSpecProb,
		o.Duplicate, o.SpeculateLoads,
		o.MaxRegionBlocks, o.MaxRegionInstrs, o.MaxRegionLevels,
		o.Verify, pipeline, o.ExactMaxBlock, o.ExactNodes)
}

// canonOptions is canonOptionsTo into a string (reproducer headers).
func canonOptions(o *core.Options, pipeline bool) string {
	var sb strings.Builder
	canonOptionsTo(&sb, o, pipeline)
	return sb.String()
}
