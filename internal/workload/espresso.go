package workload

// The ESPRESSO proxy: boolean cube cover manipulation. The original
// minimises two-level logic by testing cube containment, distance and
// intersection over packed bit-pair vectors; the proxy runs the same
// kinds of word-wise bitwise loops over a generated cover: containment
// elimination followed by a pairwise distance histogram.

const espressoSource = `
int cubes[4096];
int keep[512];
int dist[8];
int CW = 0;

int contains(int j, int i) {
    int bi = i * CW;
    int bj = j * CW;
    for (int k = 0; k < CW; k++) {
        int a = cubes[bi + k];
        int b = cubes[bj + k];
        if ((a & b) != a) return 0;
    }
    return 1;
}

int distance(int i, int j) {
    int bi = i * CW;
    int bj = j * CW;
    int d = 0;
    for (int k = 0; k < CW; k++) {
        int x = cubes[bi + k] & cubes[bj + k];
        // Count empty bit-pairs in x: a pair 00 means the cubes
        // conflict in that variable.
        for (int b = 0; b < 16; b++) {
            if ((x & 3) == 0) d++;
            x = x >> 2;
        }
    }
    return d;
}

int espresso(int nc, int cw) {
    CW = cw;
    // Single-cube containment elimination.
    int kept = 0;
    for (int i = 0; i < nc; i++) {
        int redundant = 0;
        for (int j = 0; j < nc; j++) {
            if (j == i) continue;
            if (contains(j, i)) {
                if (j < i || contains(i, j) == 0) { redundant = 1; break; }
            }
        }
        if (!redundant) { keep[kept] = i; kept++; }
    }
    // Pairwise distance histogram over the reduced cover.
    for (int x = 0; x < 8; x++) dist[x] = 0;
    for (int i = 0; i < kept; i++) {
        for (int j = i + 1; j < kept; j++) {
            int d = distance(keep[i], keep[j]);
            if (d > 7) d = 7;
            dist[d] += 1;
        }
    }
    int h = kept;
    for (int x = 0; x < 8; x++) h = h * 11 + dist[x];
    return h;
}
`

// espresso returns the logic-minimisation proxy: 72 cubes of 4 words,
// seeded so some cubes contain others.
func espresso() *Workload {
	const (
		cubesN = 72
		words  = 4
	)
	rng := newLCG(0xe5b0e550)
	cubes := make([]int64, cubesN*words)
	for c := 0; c < cubesN; c++ {
		for w := 0; w < words; w++ {
			var v int64
			for b := 0; b < 16; b++ {
				// Bit pairs: mostly 11 (don't care) with 01/10 literals,
				// giving realistic containment density.
				switch rng.intn(4) {
				case 0:
					v = v<<2 | 1
				case 1:
					v = v<<2 | 2
				default:
					v = v<<2 | 3
				}
			}
			cubes[c*words+w] = v
		}
		if c%9 == 5 {
			// Make this cube a specialisation of an earlier one: clear
			// some don't-cares of cube c-2 (guaranteed containment).
			for w := 0; w < words; w++ {
				cubes[c*words+w] = cubes[(c-2)*words+w] &^ (3 << uint(2*rng.intn(16)))
			}
		}
	}
	return &Workload{
		Name:   "espresso",
		Desc:   "boolean cube cover containment and distance (ESPRESSO proxy)",
		Source: espressoSource,
		Entry:  "espresso",
		Args:   []int64{cubesN, words},
		Data:   map[string][]int64{"cubes": cubes},
	}
}
