package asm

import (
	"fmt"
	"io"

	"gsched/internal/ir"
)

// CanonicalTo streams p into w in a normal form suitable for
// content-addressed cache keys: two programs are rendered identically
// iff they are ir.EqualPrograms-equal. Compared to Print it therefore
// drops everything that carries no program meaning — instruction
// comments (free-form annotations), instruction IDs (never printed
// anyway; they are renumbered by the parser), and unlabeled empty
// blocks (pure fallthrough artifacts that no branch can target and that
// emit no code). Globals and functions keep their program order, which
// is significant (it determines layout and lookup order). Hashing
// callers feed a digest directly without materializing the text. Write
// errors are ignored: the intended sinks (hashes, buffers) cannot fail.
func CanonicalTo(w io.Writer, p *ir.Program) {
	var buf []byte
	for _, s := range p.Syms {
		fmt.Fprintf(w, "data %s %d", s.Name, s.Words)
		if len(s.Init) > 0 {
			io.WriteString(w, " =")
			for _, v := range s.Init {
				fmt.Fprintf(w, " %d", v)
			}
		}
		io.WriteString(w, "\n")
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(w, "func %s", f.Name)
		for _, prm := range f.Params {
			fmt.Fprintf(w, " %s", prm)
		}
		if f.FrameWords > 0 {
			fmt.Fprintf(w, " frame=%d", f.FrameWords)
		}
		io.WriteString(w, ":\n")
		for _, b := range f.Blocks {
			if b.Label == "" && len(b.Instrs) == 0 {
				continue
			}
			if b.Label != "" {
				io.WriteString(w, b.Label)
				io.WriteString(w, ":\n")
			}
			for _, i := range b.Instrs {
				buf = append(buf[:0], '\t')
				buf = i.AppendString(buf)
				buf = append(buf, '\n')
				w.Write(buf)
			}
		}
	}
}
