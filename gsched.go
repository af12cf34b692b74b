// Package gsched is a reproduction of Bernstein & Rodeh, "Global
// Instruction Scheduling for Superscalar Machines" (PLDI 1991): a
// PDG-based global instruction scheduler for a parametric superscalar
// machine, together with everything needed to exercise it — a mini-C
// front end, a pseudo-RS/6000 intermediate representation, loop
// unrolling and rotation, a functional-plus-timing simulator, and the
// paper's evaluation harness.
//
// The quickest path through the API:
//
//	prog, _ := gsched.CompileC(src)                    // mini-C -> IR
//	opts := gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative)
//	gsched.SchedulePipeline(prog, opts, gsched.DefaultPipeline())
//	res, _ := gsched.Run(prog, "main", nil, nil, gsched.RunOptions{Machine: opts.Machine})
//	fmt.Println(res.Cycles)
//
// The packages under internal/ hold the implementation: internal/core is
// the paper's contribution (the global scheduling framework of §5);
// internal/pdg builds the program dependence graph of §4; internal/sim
// implements the §2 machine model, calibrated so the paper's Figure 2
// cycle estimates reproduce exactly.
package gsched

import (
	"context"
	"io"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/ir"
	"gsched/internal/machine"
	"gsched/internal/minic"
	"gsched/internal/opt"
	"gsched/internal/policy"
	"gsched/internal/profile"
	"gsched/internal/regalloc"
	"gsched/internal/sim"
	"gsched/internal/stream"
	"gsched/internal/xform"
)

// Program is a compiled unit: functions plus global data.
type Program = ir.Program

// Machine is the parametric machine description of §2.
type Machine = machine.Desc

// Level selects the global scheduling level.
type Level = core.Level

// Scheduling levels: BASE (local only), useful-only global motion,
// useful plus 1-branch speculative motion, speculative plus
// Definition-6 duplication (with profile-driven superblock formation
// when a Profile is supplied), and speculative plus the exact
// branch-and-bound block post-pass.
const (
	LevelNone        = core.LevelNone
	LevelUseful      = core.LevelUseful
	LevelSpeculative = core.LevelSpeculative
	LevelDup         = core.LevelDup
	LevelOptimal     = core.LevelOptimal
)

// Options configures the scheduler; construct with Defaults.
type Options = core.Options

// Stats reports what the scheduler did.
type Stats = core.Stats

// PipelineConfig selects which stages of the §6 pipeline run: loop
// unrolling, loop rotation and profile-driven superblock formation.
type PipelineConfig = xform.Config

// PipelineStats extends Stats with transformation counts.
type PipelineStats = xform.Stats

// RunOptions configures simulation; RunResult reports it. WatchPoint
// names a block whose entry cycles are recorded (for cycles-per-
// iteration measurements).
type (
	RunOptions = sim.Options
	RunResult  = sim.Result
	WatchPoint = sim.WatchPoint
)

// RS6K returns the IBM RISC System/6000 machine model of §2.1.
func RS6K() *Machine { return machine.RS6K() }

// Superscalar returns an RS6K-delay machine with the given numbers of
// fixed point and branch units.
func Superscalar(nFixed, nBranch int) *Machine { return machine.Superscalar(nFixed, nBranch) }

// Defaults returns the paper's scheduler configuration at a level.
func Defaults(m *Machine, level Level) Options { return core.Defaults(m, level) }

// DefaultPipeline returns the paper's §6 pipeline configuration (unroll
// and rotate inner loops of up to four blocks).
func DefaultPipeline() PipelineConfig { return xform.DefaultConfig() }

// CompileC compiles mini-C source (the supported C subset is documented
// in internal/minic) into a Program.
func CompileC(src string) (*Program, error) { return minic.Compile(src) }

// Optimize runs the machine-independent cleanups (copy propagation,
// constant folding, dead code and unreachable block elimination) that
// the paper's base compiler performs before any scheduling.
func Optimize(p *Program) OptStats { return opt.Program(p) }

// OptStats reports what Optimize removed or rewrote.
type OptStats = opt.Stats

// RegLimits describes the target register file for allocation.
type RegLimits = regalloc.Limits

// AllocStats reports a register allocation.
type AllocStats = regalloc.Stats

// RS6KRegs returns the RISC System/6000 register file (32 GPRs, 8 CR
// fields).
func RS6KRegs() RegLimits { return regalloc.RS6K() }

// Profile holds branch direction counts collected by the simulator
// (RunOptions.Profile) and consumed by the scheduler (Options.Profile).
type Profile = profile.Profile

// NewProfile returns an empty edge profile.
func NewProfile() *Profile { return profile.New() }

// ParseProfile parses the canonical textual profile form ("gsched-profile
// v1" header, one "<func> <instrID> <taken> <notTaken>" line per branch).
// Profile.Canonical renders the inverse.
func ParseProfile(src string) (*Profile, error) { return profile.Parse(src) }

// Allocate maps the program's symbolic registers onto a finite register
// file with a colouring allocator, spilling to frame slots when needed —
// the phase the paper runs after global scheduling.
func Allocate(p *Program, lim RegLimits) (AllocStats, error) {
	return regalloc.Program(p, lim)
}

// Policy is a compiled scheduling policy: a small expression program
// that replaces the built-in §5.2 priority order and optionally gates
// speculative and duplication candidates (Options.Policy). See
// internal/policy for the language.
type Policy = policy.Policy

// ParsePolicy parses, canonicalises, and compiles a policy program.
func ParsePolicy(src string) (*Policy, error) { return policy.Parse(src) }

// DefaultPolicySource is the policy program that reproduces the
// built-in §5.2 decision order exactly (byte-identical schedules);
// ParsePolicy(DefaultPolicySource) compiles it.
const DefaultPolicySource = policy.DefaultSource

// ParseAsm parses the textual assembly form (Figure 2 notation).
func ParseAsm(src string) (*Program, error) { return asm.Parse(src) }

// PrintAsm renders a program as parseable assembly.
func PrintAsm(p *Program) string { return asm.Print(p) }

// Schedule runs register renaming, the global scheduler and the basic
// block post-pass on every function of p, without loop transformations:
// SchedulePipeline with a zero PipelineConfig.
func Schedule(p *Program, opts Options) (Stats, error) {
	st, err := xform.RunProgramCtx(context.TODO(), p, opts, xform.Config{})
	return st.Stats, err
}

// SchedulePipeline runs the full §6 flow: unroll inner loops, schedule
// inner regions, rotate, schedule rotated loops and outer regions, then
// the basic block pass.
func SchedulePipeline(p *Program, opts Options, cfg PipelineConfig) (PipelineStats, error) {
	return xform.RunProgramCtx(context.TODO(), p, opts, cfg)
}

// StreamConfig configures ScheduleStream; StreamResult reports what
// flowed through it.
type (
	StreamConfig = stream.Config
	StreamResult = stream.Result
)

// ScheduleStream runs the streaming pipeline: parse lang source ("c",
// or "asm" or "s"; the empty name means "asm") one function at a time,
// schedule functions concurrently (cfg.Jobs workers), and write the
// scheduled assembly to out (nil discards it) reassembled in source
// order. The bytes written are identical to parse-everything →
// Schedule/SchedulePipeline → PrintAsm at any Jobs setting, but peak
// memory stays proportional to Jobs times the largest function instead
// of the whole program.
func ScheduleStream(ctx context.Context, lang, src string, cfg StreamConfig, out io.Writer) (StreamResult, error) {
	if lang == "" {
		lang = "asm"
	}
	d, err := stream.DialectFor(lang)
	if err != nil {
		return StreamResult{}, err
	}
	return stream.Schedule(ctx, d, src, cfg, out)
}

// Run loads the program and executes the named function. data overrides
// global symbols by name; a nil RunOptions.Machine runs functionally
// (one cycle per instruction, no delays).
func Run(p *Program, entry string, args []int64, data map[string][]int64, opts RunOptions) (*RunResult, error) {
	m, err := sim.Load(p)
	if err != nil {
		return nil, err
	}
	return m.Run(entry, args, data, opts)
}
