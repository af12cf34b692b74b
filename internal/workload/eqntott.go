package workload

// The EQNTOTT proxy: the original spends most of its time in cmppt,
// comparing product terms (vectors of two-bit values) while sorting the
// term list. The proxy sorts term indices with insertion sort over the
// same kind of word-wise compare with early exit — compare-dominated
// code whose useful scheduling carried most of the paper's win.

const eqntottSource = `
int pts[4096];
int perm[512];
int NW = 0;

int cmppt(int i, int j) {
    int bi = i * NW;
    int bj = j * NW;
    int r = 0;
    int k = 0;
    while (k < NW && r == 0) {
        int a = pts[bi + k];
        int b = pts[bj + k];
        if (a < b) {
            r = 0 - 1;
        } else {
            if (a > b) r = 1;
        }
        k = k + 1;
    }
    return r;
}

int eqntott(int nt, int nw) {
    NW = nw;
    for (int i = 0; i < nt; i++) perm[i] = i;
    // Insertion sort of perm[] under cmppt order.
    for (int i = 1; i < nt; i++) {
        int x = perm[i];
        int j = i - 1;
        while (j >= 0 && cmppt(perm[j], x) > 0) {
            perm[j + 1] = perm[j];
            j = j - 1;
        }
        perm[j + 1] = x;
    }
    // Checksum the sorted order and count duplicate neighbours (the
    // original merges identical terms).
    int h = 0;
    int dups = 0;
    for (int i = 0; i < nt; i++) {
        h = h * 37 + perm[i];
        if (i > 0 && cmppt(perm[i - 1], perm[i]) == 0) dups++;
    }
    return h * 100 + dups;
}
`

// eqntott returns the truth-table proxy: 160 terms of 6 words of packed
// two-bit values, with deliberate duplicates so equal-compare paths run.
func eqntott() *Workload {
	const (
		terms = 160
		words = 6
	)
	rng := newLCG(0xe9407707)
	pts := make([]int64, terms*words)
	for t := 0; t < terms; t++ {
		if t%7 == 3 {
			// Duplicate an earlier term to exercise the equal path.
			copy(pts[t*words:(t+1)*words], pts[(t-3)*words:(t-2)*words])
			continue
		}
		for w := 0; w < words; w++ {
			// 16 two-bit positions per word, values 0..2 (0,1,don't-care).
			var v int64
			for b := 0; b < 16; b++ {
				v = v<<2 | rng.intn(3)
			}
			pts[t*words+w] = v
		}
	}
	return &Workload{
		Name:   "eqntott",
		Desc:   "bit-vector term compare and sort (EQNTOTT cmppt proxy)",
		Source: eqntottSource,
		Entry:  "eqntott",
		Args:   []int64{terms, words},
		Data:   map[string][]int64{"pts": pts},
	}
}
