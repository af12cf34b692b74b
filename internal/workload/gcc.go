package workload

// The GCC proxy: a table-driven token scanner with a peephole window and
// a tiny constant folder — classification-heavy compiler-style code with
// many medium-size blocks, the kind the paper reports as hard to improve
// (Figure 8 shows 0% / −1.5% for GCC).

const gccSource = `
int src[8192];
int outbuf[8192];
int hist[64];

int scan(int n) {
    int no = 0;
    int folded = 0;
    int depth = 0;
    for (int i = 0; i < n; i++) {
        int t = src[i];
        int cls = 4;
        if (t < 10) {
            cls = 0;                       // literal
            // Constant folding window: lit op lit.
            if (i + 2 < n && src[i + 1] >= 40 && src[i + 1] < 44 && src[i + 2] < 10) {
                int op = src[i + 1];
                int b = src[i + 2];
                int v = t;
                if (op == 40) v = v + b;
                else if (op == 41) v = v - b;
                else if (op == 42) v = v * b;
                else if (b != 0) v = v % b;
                t = v & 7;
                i += 2;
                folded++;
            }
        } else if (t < 40) {
            cls = 1;                       // identifier
            t = (t * 7 + 3) % 30 + 10;     // hash into a symbol bucket
        } else if (t < 50) {
            cls = 2;                       // operator
        } else if (t < 60) {
            cls = 3;                       // punctuation
            if (t == 50) depth++;
            if (t == 51) { if (depth > 0) depth--; else cls = 4; }
        }
        hist[cls * 8 + (t & 7)] += 1;
        if (cls == 0 || cls == 1 || cls == 2) {
            outbuf[no] = cls * 1024 + t;
            no++;
        }
    }
    int h = no * 3 + folded * 5 + depth;
    for (int i = 0; i < 64; i++) h = h * 7 + hist[i];
    return h;
}
`

// gcc returns the compiler proxy: an 8192-token stream with realistic
// class frequencies (idents > operators > literals > punctuation).
func gcc() *Workload {
	const n = 8192
	rng := newLCG(0x6cc1990)
	src := make([]int64, n)
	for i := 0; i < n; i++ {
		switch rng.intn(10) {
		case 0, 1:
			src[i] = rng.intn(10) // literal
		case 2, 3, 4, 5:
			src[i] = 10 + rng.intn(30) // identifier
		case 6, 7:
			src[i] = 40 + rng.intn(10) // operator
		case 8:
			src[i] = 50 + rng.intn(2) // paren
		default:
			src[i] = 52 + rng.intn(8) // other punctuation
		}
	}
	return &Workload{
		Name:   "gcc",
		Desc:   "table-driven scanner with peephole folding (GCC proxy)",
		Source: gccSource,
		Entry:  "scan",
		Args:   []int64{n},
		Data:   map[string][]int64{"src": src},
	}
}
