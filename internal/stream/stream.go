// Package stream runs the whole per-function tool chain — parse,
// schedule, verify, print — over a source unit without materializing
// it: a Dialect's FuncReader feeds the program driver (xform.Drive)
// one function at a time, so the bytes written are identical to
//
//	parse everything; xform.RunProgramCtx; asm.Print
//
// at any Jobs setting, while peak memory stays proportional to
// Jobs · (largest function), not to the program (plus the source text
// itself, which callers hold in one string).
package stream

import (
	"context"
	"fmt"
	"io"

	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/minic"
	"gsched/internal/xform"
)

// Config selects what runs on each function.
type Config struct {
	// Opts are the scheduling options applied to every function.
	Opts core.Options
	// Pipeline configures the §6 transform pipeline that xform.RunCtx
	// runs on each function when UsePipeline is set; otherwise a zero
	// xform.Config, plain scheduling, runs.
	Pipeline    xform.Config
	UsePipeline bool
	// Jobs is the number of functions scheduled concurrently
	// (min 1). Output bytes and merged stats are identical at any
	// setting.
	Jobs int
}

// Result aggregates what flowed through the pipeline.
type Result = xform.Result

// DialectFor maps a language name ("c" for mini-C, "asm" or "s" for
// assembly) to its Dialect. Each entry point picks its own language for
// the empty name.
func DialectFor(lang string) (asm.Dialect, error) {
	switch lang {
	case "asm", "s":
		return asm.Native, nil
	case "c":
		return minic.Dialect, nil
	}
	return nil, fmt.Errorf("unknown language %q (want c, asm or s)", lang)
}

// Schedule streams src through parse → schedule → verify → print on
// the program driver (xform.Drive), writing the scheduled program to
// out; a nil out discards the text but still schedules everything.
func Schedule(ctx context.Context, d asm.Dialect, src string, cfg Config, out io.Writer) (Result, error) {
	r, err := d.Open(src)
	if err != nil {
		return Result{}, err
	}
	var pipe xform.Config
	if cfg.UsePipeline {
		pipe = cfg.Pipeline
	}
	return xform.Drive(ctx, r, cfg.Opts, pipe, cfg.Jobs, out)
}
