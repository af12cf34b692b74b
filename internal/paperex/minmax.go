// Package paperex constructs the paper's running examples as IR: the
// minmax loop of Figures 1 and 2 (used throughout §3–§5 and reproduced by
// the Figure 2/5/6 experiments) and the speculative-motion example of
// §5.3. Tests and experiments across the repository share these.
package paperex

import "gsched/internal/ir"

// Registers of Figure 2. max is kept in r30, min in r28, i in r29, n in
// r27, the address of a[i-1] in r31; u and v use r12 and r0; the
// condition registers are cr7, cr6, cr4 exactly as printed.
var (
	RegU   = ir.GPR(12)
	RegV   = ir.GPR(0)
	RegMax = ir.GPR(30)
	RegMin = ir.GPR(28)
	RegI   = ir.GPR(29)
	RegN   = ir.GPR(27)
	RegA   = ir.GPR(31)
	CR7    = ir.CR(7)
	CR6    = ir.CR(6)
	cr4    = ir.CR(4)
)

// MinMax builds a runnable minmax(n) function whose loop is exactly the
// ten-block pseudo-code of Figure 2 (instructions I1–I20). The function
// takes n in r27, scans the global array "a", and stores min and max to
// the global "out" (out[0]=min, out[1]=max) before returning min.
//
// Block layout: Blocks[0] is the prologue, Blocks[1..10] are the paper's
// BL1..BL10, Blocks[11] is the epilogue. LoopBlocks reports the [1,11)
// range for convenience.
func MinMax() (*ir.Program, *ir.Func) {
	p := ir.NewProgram()
	p.AddSym("a", 4096)
	p.AddSym("out", 2)

	f := ir.NewFunc("minmax")
	f.Params = []ir.Reg{RegN}
	b := ir.NewBuilder(f)

	// Prologue: min=a[0]; max=min; i=1; r31=&a[0]-0; test i<n once.
	b.Block("entry")
	b.LI(RegI, 1).Comment = "i = 1"
	b.LI(RegA, 0).Comment = "r31 = byte offset of a[0]"
	b.Load(RegMin, "a", RegA, 0).Comment = "min = a[0]"
	b.LR(RegMax, RegMin).Comment = "max = min"
	b.Cmp(cr4, RegI, RegN).Comment = "i < n"
	b.BF("CL.14", cr4, ir.BitLT).Comment = "skip loop if i >= n"

	// BL1 (CL.0): I1..I4.
	b.Block("CL.0")
	b.Load(RegU, "a", RegA, 4).Comment = "load u"                // I1
	b.LoadU(RegV, RegA, "a", RegA, 8).Comment = "load v, bump i" // I2
	b.Cmp(CR7, RegU, RegV).Comment = "u > v"                     // I3
	b.BF("CL.4", CR7, ir.BitGT)                                  // I4

	// BL2: I5, I6.
	b.Block("")
	b.Cmp(CR6, RegU, RegMax).Comment = "u > max" // I5
	b.BF("CL.6", CR6, ir.BitGT)                  // I6

	// BL3: I7.
	b.Block("")
	b.LR(RegMax, RegU).Comment = "max = u" // I7

	// BL4 (CL.6): I8, I9.
	b.Block("CL.6")
	b.Cmp(CR7, RegV, RegMin).Comment = "v < min" // I8
	b.BF("CL.9", CR7, ir.BitLT)                  // I9

	// BL5: I10, I11.
	b.Block("")
	b.LR(RegMin, RegV).Comment = "min = v" // I10
	b.B("CL.9")                            // I11

	// BL6 (CL.4): I12, I13.
	b.Block("CL.4")
	b.Cmp(CR6, RegV, RegMax).Comment = "v > max" // I12
	b.BF("CL.11", CR6, ir.BitGT)                 // I13

	// BL7: I14.
	b.Block("")
	b.LR(RegMax, RegV).Comment = "max = v" // I14

	// BL8 (CL.11): I15, I16.
	b.Block("CL.11")
	b.Cmp(CR7, RegU, RegMin).Comment = "u < min" // I15
	b.BF("CL.9", CR7, ir.BitLT)                  // I16

	// BL9: I17.
	b.Block("")
	b.LR(RegMin, RegU).Comment = "min = u" // I17

	// BL10 (CL.9): I18, I19, I20.
	b.Block("CL.9")
	b.AI(RegI, RegI, 2).Comment = "i = i + 2" // I18
	b.Cmp(cr4, RegI, RegN).Comment = "i < n"  // I19
	b.BT("CL.0", cr4, ir.BitLT)               // I20

	// Epilogue.
	b.Block("CL.14")
	zero := ir.GPR(2)
	b.LI(zero, 0)
	b.Store("out", zero, 0, RegMin).Comment = "out[0] = min"
	b.Store("out", zero, 4, RegMax).Comment = "out[1] = max"
	b.Ret(RegMin)

	f.ReindexBlocks()
	p.AddFunc(f)
	return p, f
}

// LoopBlocks returns the half-open block index range [lo, hi) of the
// Figure 2 loop inside the MinMax function (BL1..BL10).
func LoopBlocks() (lo, hi int) { return 1, 11 }

// Speculation builds the §5.3 example: a diamond where both sides assign
// the same variable that is printed at the join. Moving either assignment
// into the branch block is legal on data dependences alone, but moving
// both would print a wrong value; the live-on-exit rule must prevent the
// second motion.
//
//	B1: if (r1 > r2)  { B2: x = 5 } else { B3: x = 3 }  B4: print(x)
//
// x lives in r5. The function takes r1, r2 as parameters.
func Speculation() (*ir.Program, *ir.Func) {
	p := ir.NewProgram()
	f := ir.NewFunc("spec")
	r1, r2, x := ir.GPR(1), ir.GPR(2), ir.GPR(5)
	f.Params = []ir.Reg{r1, r2}
	b := ir.NewBuilder(f)

	b.Block("B1")
	b.Cmp(ir.CR(0), r1, r2).Comment = "r1 > r2"
	b.BF("B3", ir.CR(0), ir.BitGT)

	b.Block("B2")
	b.LI(x, 5).Comment = "x = 5"
	b.B("B4")

	b.Block("B3")
	b.LI(x, 3).Comment = "x = 3"

	b.Block("B4")
	b.Call(ir.NoReg, "print", x)
	b.Ret(x)

	f.ReindexBlocks()
	p.AddFunc(f)
	return p, f
}
