package workloads

import "bytes"

// The counting, inverted-index, top-k and PageRank workloads declare their
// reduces as monoids (kv.Monoid): the element space is the map-output value
// encoding itself, Combine folds two elements into one, and a finished
// fold is byte-identical to running the workload's Reduce over the same
// value multiset. That single declaration gives every engine map-side
// combining, gives the hash and resident engines their per-key state and
// gives RunDelta its preserved partials — engine.Job.Fold derives all three.

// CountMonoid is the counting workloads' monoid: elements are ASCII
// decimal counts, Combine is addition.
type CountMonoid struct{}

// Combine adds two ASCII counts, reusing a's storage.
func (CountMonoid) Combine(a, b []byte) []byte {
	n := parseUint(a) + parseUint(b)
	return appendUint(a[:0], n)
}

// PostingsMonoid is the inverted-index monoid: elements are canonically
// sorted flat arrays of fixed-width postings, Combine is a sorted merge. A
// single posting (what the map emits) is trivially sorted, so every fold
// stays inside the element space and the finished fold equals the canonical
// sorted list reducePostings produces.
// Equal postings are byte-identical, so merge order cannot show in the
// output.
type PostingsMonoid struct{}

// Combine merges two sorted posting lists into one sorted list, reusing
// a's storage: postings emitted in document order hit the O(1) append fast
// path, and the general case merges b into a from the back, so a fold over
// a group allocates only through append growth instead of one fresh buffer
// per step.
func (PostingsMonoid) Combine(a, b []byte) []byte {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 || bytes.Compare(a[len(a)-postingWidth:], b[:postingWidth]) <= 0 {
		return append(a, b...)
	}
	i := len(a) // unmerged tail of the original a
	a = append(a, b...)
	j, w := len(b), len(a) // unmerged tail of b; write cursor
	for i > 0 && j > 0 {
		// The write cursor always trails the merged region (w = i+j > i),
		// so copying a's own postings upward never clobbers unread ones.
		if bytes.Compare(a[i-postingWidth:i], b[j-postingWidth:j]) > 0 {
			copy(a[w-postingWidth:w], a[i-postingWidth:i])
			i -= postingWidth
		} else {
			copy(a[w-postingWidth:w], b[j-postingWidth:j])
			j -= postingWidth
		}
		w -= postingWidth
	}
	copy(a[i:w], b[:j]) // leftovers of b are the smallest; a's are in place
	return a
}

// TopKMonoid is the top-k monoid: elements are canonical bounded top-k
// lists in the encodeTop framing ("count name\n", count descending, ties
// by name), Combine merges two lists and re-truncates to K. Truncated
// top-k selection over a total order is
// associative and commutative, which is exactly why partial top-k states
// are mergeable (§IV's open question).
type TopKMonoid struct{ K int }

// Combine merges two canonical lists, keeping the K largest.
func (m TopKMonoid) Combine(a, b []byte) []byte {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	return encodeTop(mergeTop(m.K, decodeTop(a), decodeTop(b)))
}

// CountState reads a counting state value — the ASCII element of CountMonoid
// the hash engines hold for the counting workloads (exported for threshold
// predicates like Job.EmitWhen).
func CountState(state []byte) uint64 { return parseUint(state) }
