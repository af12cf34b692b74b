package workload

// The LI proxy: a stack-machine bytecode interpreter. The dispatch chain
// produces exactly the code shape the paper attributes to the Lisp
// interpreter — small basic blocks ending in hard-to-predict branches —
// where speculative scheduling was the dominant win (Figure 8).

const liSource = `
int code[1024];
int stack[256];
int mem[32];

int vm(int codelen) {
    int pc = 0;
    int sp = 0;
    while (pc < codelen) {
        int op = code[pc];
        int arg = code[pc + 1];
        pc = pc + 2;
        if (op == 0) {                       // HALT
            break;
        } else if (op == 1) {                // PUSH arg
            stack[sp] = arg; sp++;
        } else if (op == 2) {                // ADD
            sp--; stack[sp - 1] = stack[sp - 1] + stack[sp];
        } else if (op == 3) {                // SUB
            sp--; stack[sp - 1] = stack[sp - 1] - stack[sp];
        } else if (op == 4) {                // MUL
            sp--; stack[sp - 1] = stack[sp - 1] * stack[sp];
        } else if (op == 5) {                // MOD
            sp--; stack[sp - 1] = stack[sp - 1] % stack[sp];
        } else if (op == 6) {                // DUP
            stack[sp] = stack[sp - 1]; sp++;
        } else if (op == 7) {                // JZ arg
            sp--; if (stack[sp] == 0) pc = arg;
        } else if (op == 8) {                // JGT arg
            sp--; if (stack[sp] > 0) pc = arg;
        } else if (op == 9) {                // JMP arg
            pc = arg;
        } else if (op == 10) {               // LOAD mem[arg]
            stack[sp] = mem[arg]; sp++;
        } else if (op == 11) {               // STORE mem[arg]
            sp--; mem[arg] = stack[sp];
        } else {
            return 0 - 2;
        }
    }
    int h = sp;
    for (int i = 0; i < 32; i++) h = h * 31 + mem[i];
    return h;
}
`

// VM opcodes used by the assembler below.
const (
	opHALT = iota
	opPUSH
	opADD
	opSUB
	opMUL
	opMOD
	opDUP
	opJZ
	opJGT
	opJMP
	opLOAD
	opSTORE
)

// liProgram assembles a bytecode program that iterates a Collatz-style
// recurrence n times, accumulating into VM memory — heavy on the
// conditional opcodes so the interpreter's branches stay unpredictable.
func liProgram(n int64) []int64 {
	var b []int64
	emit := func(op, arg int64) int64 {
		at := int64(len(b))
		b = append(b, op, arg)
		return at
	}
	// mem[0] = n; mem[1] = accumulator; mem[2] = current value.
	emit(opPUSH, n)
	emit(opSTORE, 0)
	emit(opPUSH, 0)
	emit(opSTORE, 1)
	emit(opPUSH, 7)
	emit(opSTORE, 2)

	loop := int64(len(b))
	// if mem[0] == 0 goto end
	emit(opLOAD, 0)
	jzEnd := emit(opJZ, -1)
	// if mem[2] % 2 > 0 goto odd
	emit(opLOAD, 2)
	emit(opPUSH, 2)
	emit(opMOD, 0)
	jodd := emit(opJGT, -1)
	// even: mem[2] = mem[2] / 2 — no DIV op: use repeated subtract space
	// instead keep it simple: mem[2] = mem[2] - (mem[2] % 4) + 1
	emit(opLOAD, 2)
	emit(opDUP, 0)
	emit(opPUSH, 4)
	emit(opMOD, 0)
	emit(opSUB, 0)
	emit(opPUSH, 1)
	emit(opADD, 0)
	emit(opSTORE, 2)
	jjoin := emit(opJMP, -1)
	// odd: mem[2] = mem[2]*3 + 1 (mod 9973 to stay bounded)
	odd := int64(len(b))
	emit(opLOAD, 2)
	emit(opPUSH, 3)
	emit(opMUL, 0)
	emit(opPUSH, 1)
	emit(opADD, 0)
	emit(opPUSH, 9973)
	emit(opMOD, 0)
	emit(opSTORE, 2)
	// join: mem[1] += mem[2]; mem[0] -= 1; goto loop
	join := int64(len(b))
	emit(opLOAD, 1)
	emit(opLOAD, 2)
	emit(opADD, 0)
	emit(opSTORE, 1)
	emit(opLOAD, 0)
	emit(opPUSH, 1)
	emit(opSUB, 0)
	emit(opSTORE, 0)
	emit(opJMP, loop)
	end := int64(len(b))
	emit(opHALT, 0)

	b[jzEnd+1] = end
	b[jodd+1] = odd
	b[jjoin+1] = join
	return b
}

// li returns the Lisp-interpreter proxy.
func li() *Workload {
	code := liProgram(2500)
	return &Workload{
		Name:   "li",
		Desc:   "bytecode interpreter dispatch loop (Lisp interpreter proxy)",
		Source: liSource,
		Entry:  "vm",
		Args:   []int64{int64(len(code))},
		Data:   map[string][]int64{"code": code},
	}
}
