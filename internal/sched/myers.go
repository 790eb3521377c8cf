package sched

// Pattern is one schedule prepared for bit-parallel edit distance against
// many others: Myers' algorithm (J. ACM 1999) in the multi-word form of
// Hyyrö (2003). Both the corpus's nearest-neighbour scan and Levenshtein
// run on it; it is the package's only edit-distance computation apart from
// Diff's full-table alignment.
//
// Schedules are dense int32 symbol IDs. Reset builds the pattern's
// per-symbol match masks (Peq) once; Distance then streams a text through
// them one symbol per step, advancing the whole DP column 64 pattern
// positions per machine word — a 200×200 comparison is 200×4 word steps
// rather than 40,000 cells.
//
// Memory is (alphabet+1)·⌈m/64⌉ words of masks plus 2·⌈m/64⌉ words of
// column state, reused across Reset calls. Schedules carry a handful of
// callback kinds, so the alphabet stays small.
//
// The zero value is an empty pattern. A Pattern is not safe for concurrent
// use.
type Pattern struct {
	m     int      // pattern length
	words int      // ⌈m/64⌉
	nsym  int      // symbols in [0, nsym) have a mask row; row nsym is all-zero
	peq   []uint64 // peq[s*words+b] bit i: pattern[64b+i] == s
	pv    []uint64 // vertical +1 deltas of the current column
	mv    []uint64 // vertical -1 deltas of the current column
}

// Reset prepares p for pattern, whose symbols lie in [0, alphabet). The
// pattern slice is not retained.
func (p *Pattern) Reset(pattern []int32, alphabet int) {
	p.m = len(pattern)
	p.words = (len(pattern) + 63) / 64
	p.nsym = alphabet
	n := (alphabet + 1) * p.words
	if cap(p.peq) < n {
		p.peq = make([]uint64, n)
	}
	p.peq = p.peq[:n]
	clear(p.peq)
	for i, s := range pattern {
		p.peq[int(s)*p.words+i/64] |= 1 << (uint(i) % 64)
	}
	if cap(p.pv) < p.words {
		p.pv = make([]uint64, p.words)
		p.mv = make([]uint64, p.words)
	}
	p.pv, p.mv = p.pv[:p.words], p.mv[:p.words]
}

// Distance returns the edit distance (unit-cost insertions, deletions and
// substitutions) between the pattern and text, bounded by limit: the exact
// distance when it is <= limit, limit+1 otherwise. Text symbols outside the
// pattern's alphabet match nothing.
//
// The bottom cell of the DP column changes by at most one per text symbol,
// so once score − remaining text > limit the final distance must exceed
// limit and the scan stops.
func (p *Pattern) Distance(text []int32, limit int) int {
	m, n := p.m, len(text)
	if m-n > limit || n-m > limit {
		return limit + 1
	}
	if m == 0 {
		return n
	}
	w := p.words
	pv := p.pv
	mv := p.mv[:len(pv)] // equal lengths let the compiler drop bounds checks
	for b := range pv {
		pv[b], mv[b] = ^uint64(0), 0 // column 0: D[i][0] = i
	}
	lastBit := uint(m-1) % 64
	score := m
	for j, s := range text {
		if uint(s) >= uint(p.nsym) {
			s = int32(p.nsym)
		}
		eq := p.peq[int(s)*w:][:len(pv)]
		// Row 0 is D[0][j] = j: the horizontal delta entering block 0 is +1.
		hp, hm := uint64(1), uint64(0)
		var ph, mh uint64
		for b, pvb := range pv {
			e, mvb := eq[b], mv[b]
			xv := e | mvb
			e |= hm
			xh := (((e & pvb) + pvb) ^ pvb) | e
			ph = mvb | ^(xh | pvb)
			mh = pvb & xh
			php, mhp := ph<<1|hp, mh<<1|hm
			hp, hm = ph>>63, mh>>63
			pv[b] = mhp | ^(xv | php)
			mv[b] = php & xv
		}
		// The last block's bit lastBit is row m; the bits above it are
		// padding and never flow down into it.
		score += int((ph>>lastBit)&1) - int((mh>>lastBit)&1)
		if score-(n-1-j) > limit {
			return limit + 1
		}
	}
	return score
}
