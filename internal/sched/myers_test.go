package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDistance is the plain two-row Levenshtein DP, kept only as the
// reference oracle for the bit-parallel kernel.
func refDistance(a, b []int32) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// refBounded applies the kernel's bounded contract to the reference.
func refBounded(a, b []int32, limit int) int {
	if d := refDistance(a, b); d <= limit {
		return d
	}
	return limit + 1
}

func randIDs(r *rand.Rand, n, alphabet int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(r.Intn(alphabet))
	}
	return s
}

// nearCopy returns s with k random positions substituted.
func nearCopy(r *rand.Rand, s []int32, k, alphabet int) []int32 {
	out := append([]int32(nil), s...)
	for ; k > 0 && len(out) > 0; k-- {
		out[r.Intn(len(out))] = int32(r.Intn(alphabet))
	}
	return out
}

// checkKernel compares the kernel with the reference at a spread of limits:
// 0, below the length gap, at the exact distance, and at max(len).
func checkKernel(t *testing.T, p *Pattern, pat, text []int32, alphabet int) {
	t.Helper()
	p.Reset(pat, alphabet)
	exact := refDistance(pat, text)
	gap := len(pat) - len(text)
	if gap < 0 {
		gap = -gap
	}
	limits := []int{0, gap - 1, gap, exact - 1, exact, exact + 1, max(len(pat), len(text))}
	for _, limit := range limits {
		if limit < 0 {
			continue
		}
		if got, want := p.Distance(text, limit), refBounded(pat, text, limit); got != want {
			t.Fatalf("len %d×%d alphabet %d limit %d: kernel %d, reference %d (exact %d)",
				len(pat), len(text), alphabet, limit, got, want, exact)
		}
	}
}

// TestPatternMatchesReference: the kernel agrees with the scalar DP across
// the 64-bit word boundaries, small and large alphabets, near-copies, text
// symbols the pattern lacks, and every interesting limit.
func TestPatternMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257}
	r := rand.New(rand.NewSource(1))
	var p Pattern // reused throughout, as the corpus reuses its own
	for _, alphabet := range []int{1, 2, 3, 5, 8, 12} {
		for _, m := range lengths {
			for _, n := range lengths {
				pat := randIDs(r, m, alphabet)
				checkKernel(t, &p, pat, randIDs(r, n, alphabet), alphabet)
			}
			// Near-copies: the steady state of corpus admission.
			pat := randIDs(r, m, alphabet)
			for _, k := range []int{0, 1, 3, 10} {
				checkKernel(t, &p, pat, nearCopy(r, pat, k, alphabet), alphabet)
			}
		}
	}
	// Text symbols absent from the pattern: the pattern uses only the low
	// half of the alphabet, the text all of it, plus IDs past the alphabet.
	for _, m := range lengths {
		for _, n := range lengths {
			pat := randIDs(r, m, 3)
			text := randIDs(r, n, 6)
			checkKernel(t, &p, pat, text, 6)
			for i := range text {
				if i%5 == 0 {
					text[i] = 100
				}
			}
			checkKernel(t, &p, pat, text, 3)
		}
	}
}

// TestPatternRandom: random pairs of lengths 0–300 and random alphabets.
func TestPatternRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var p Pattern
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	for i := 0; i < iters; i++ {
		alphabet := 1 + r.Intn(12)
		pat := randIDs(r, r.Intn(301), alphabet)
		var text []int32
		if r.Intn(2) == 0 {
			text = nearCopy(r, pat, r.Intn(20), alphabet)
			// Shift lengths too: drop or append a few symbols.
			if d := r.Intn(9) - 4; d < 0 && len(text) >= -d {
				text = text[:len(text)+d]
			} else if d > 0 {
				text = append(text, randIDs(r, d, alphabet)...)
			}
		} else {
			text = randIDs(r, r.Intn(301), alphabet)
		}
		checkKernel(t, &p, pat, text, alphabet)
	}
}

// TestLevenshteinMatchesReference: the string entry point interns and runs
// the kernel; it must agree with the DP whichever argument is longer.
func TestLevenshteinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		alphabet := 1 + r.Intn(12)
		a := randIDs(r, r.Intn(200), alphabet)
		b := randIDs(r, r.Intn(200), alphabet)
		if got, want := Levenshtein(names(a), names(b)), refDistance(a, b); got != want {
			t.Fatalf("Levenshtein = %d, reference %d (lens %d/%d)", got, want, len(a), len(b))
		}
	}
}

func names(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("k%d", id)
	}
	return out
}

func TestLevenshteinSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := names(randIDs(r, 200, 6)), names(randIDs(r, 180, 6))
	Levenshtein(a, b)
	if n := testing.AllocsPerRun(50, func() { Levenshtein(a, b) }); n > 2 {
		t.Fatalf("Levenshtein allocates %v per call, want <= 2", n)
	}
}
