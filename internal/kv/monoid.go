package kv

// Monoid is the typed commutative-aggregate contract of "Monoidify!"
// (Lin, 2013): a reduce whose value space carries an associative,
// commutative Combine, and in which every map value is already an element.
// A fold here only ever combines a non-empty group, starting from the
// group's first value, so no identity element is needed: the contract is a
// commutative semigroup. A workload that declares its reduce as a monoid
// lets every engine combine partial results in-node before shuffle, lets
// the hash and resident engines hold one element per key, and lets the
// incremental re-run path preserve one element per (block, key) — the map
// output, the in-flight partials and the preserved state all live in the
// same byte-encoded value space.
//
// Laws (checked by the property tests in internal/workloads):
//
//	Combine(Combine(a, b), c) == Combine(a, Combine(b, c))  (associativity)
//	Combine(a, b) == Combine(b, a)                          (commutativity)
//
// all byte for byte. Together they say the finished answer is independent
// of fold order, which every engine relies on: values fold in arrival order,
// and arrival order differs between engines and between a run and its
// recovery. A job that declares no monoid gets the same guarantee from the
// free monoid — its values, length-framed and concatenated (AppendFramed,
// NextFrame) — because its Reduce must be a function of the value multiset.
//
// The answer for a key is its folded element. A monoid whose answer is not
// its element (an average kept as sum and count) additionally implements
//
//	Final(key, elem []byte, emit func(key, val []byte))
//
// with engine.Emit as the emit type; see engine.Job.Monoid.
//
// Combine may reuse a's storage; callers that need both inputs afterwards
// must pass copies. Implementations must be stateless (safe to share across
// the intra-run worker pool).
type Monoid interface {
	// Combine folds b into a, returning the combined element. It may
	// append into (and return) a's storage.
	Combine(a, b []byte) []byte
}
