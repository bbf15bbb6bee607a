// Package dfs is the HDFS stand-in: a block-oriented distributed file
// system over the simulated cluster's disks. Files are split into fixed-size
// blocks placed round-robin across storage nodes with optional replication;
// block granularity drives MapReduce task granularity, and locality-aware
// reads let the scheduler place map tasks next to their data, exactly the
// two roles HDFS plays in the paper's §II description.
//
// Input datasets are registered with a deterministic per-block content
// generator and materialized lazily on read, so a simulated 256 MB (or GB)
// dataset does not have to live in host memory all at once.
package dfs

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"onepass/internal/cluster"
	"onepass/internal/sim"
)

// DefaultBlockSize matches Hadoop's default of 64 MB.
const DefaultBlockSize = 64 << 20

// Block is one block of a DFS file.
type Block struct {
	Path  string
	Index int
	Size  int64
	// AvailableAt is when the block finishes arriving into the system —
	// zero for preloaded data, staggered for streams. Schedulers must not
	// start a map task on a block before this instant.
	AvailableAt sim.Time
	// replicas are node IDs hosting the block.
	replicas []int
	gen      func() []byte
	// mem marks a memory-resident block (see RegisterResident): reads are
	// served from the hosting node's memory and charge no disk I/O, only
	// the network transfer when the reader is remote.
	mem bool
}

// Peek returns the block contents without charging any I/O — for tests and
// verification only; simulated reads go through DFS.ReadBlock.
func (b *Block) Peek() []byte { return b.gen() }

// fileMeta is the NameNode-side record of one file.
type fileMeta struct {
	path   string
	blocks []*Block
	size   int64
	// sink output files track size only.
	discard bool
}

// DFS is the distributed file system.
type DFS struct {
	cluster     *cluster.Cluster
	blockSize   int64
	replication int
	files       map[string]*fileMeta
	nextPlace   int
}

// New creates a DFS over c with the given block size and replication
// factor. The paper's configuration used 64 MB blocks and replication 1.
func New(c *cluster.Cluster, blockSize int64, replication int) *DFS {
	if blockSize <= 0 {
		panic("dfs: block size must be positive")
	}
	storage := len(c.StorageNodes())
	if replication < 1 {
		replication = 1
	}
	if replication > storage {
		replication = storage
	}
	return &DFS{cluster: c, blockSize: blockSize, replication: replication, files: make(map[string]*fileMeta)}
}

// BlockSize returns the configured block size.
func (d *DFS) BlockSize() int64 { return d.blockSize }

// RegisterGenerated creates a preloaded file of totalSize bytes whose block
// contents come from gen(blockIndex, blockSize). gen must be deterministic:
// re-reads (e.g. by a re-executed task) must observe identical bytes.
func (d *DFS) RegisterGenerated(path string, totalSize int64, gen func(block int, size int64) []byte) error {
	return d.RegisterStream(path, totalSize, 0, gen)
}

// RegisterStream creates a file whose blocks *arrive over time* at rate
// bytes/second (0 = preloaded): block i becomes available once its last
// byte has streamed in. This is the paper's one-pass analytics setting —
// the query runs while the data is still arriving, instead of after a
// separate loading phase.
func (d *DFS) RegisterStream(path string, totalSize int64, rate float64, gen func(block int, size int64) []byte) error {
	if _, ok := d.files[path]; ok {
		return fmt.Errorf("dfs: file %q already exists", path)
	}
	meta := &fileMeta{path: path, size: totalSize}
	storage := d.cluster.StorageNodes()
	nBlocks := int((totalSize + d.blockSize - 1) / d.blockSize)
	var streamed int64
	for i := 0; i < nBlocks; i++ {
		size := d.blockSize
		if int64(i+1)*d.blockSize > totalSize {
			size = totalSize - int64(i)*d.blockSize
		}
		b := &Block{Path: path, Index: i, Size: size}
		if rate > 0 {
			streamed += size
			b.AvailableAt = sim.Time(float64(streamed) / rate * float64(sim.Second))
		}
		for r := 0; r < d.replication; r++ {
			node := storage[(d.nextPlace+r)%len(storage)].ID
			b.replicas = append(b.replicas, node)
		}
		d.nextPlace++
		idx, sz := i, size
		b.gen = func() []byte { return gen(idx, sz) }
		meta.blocks = append(meta.blocks, b)
	}
	d.files[path] = meta
	return nil
}

// Blocks returns the blocks of a file in order.
func (d *DFS) Blocks(path string) ([]*Block, error) {
	meta, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", path)
	}
	return meta.blocks, nil
}

// BlocksUnder returns the blocks of every file directly under the directory
// prefix, in path order — how a chained job reads the part files a previous
// job wrote under its output path. Files in subdirectories are not the
// job's part files (the hot-key engine's early answers live in
// <output>/early/) and are left out.
func (d *DFS) BlocksUnder(prefix string) ([]*Block, error) {
	var paths []string
	for p := range d.files {
		if name, ok := strings.CutPrefix(p, prefix+"/"); ok && !strings.Contains(name, "/") {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dfs: no files under %q", prefix)
	}
	sort.Strings(paths)
	var out []*Block
	for _, p := range paths {
		for _, b := range d.files[p].blocks {
			// Shallow-copy with a globally unique index: engines use the
			// block index as the map-task id, and every part file starts
			// its own numbering at zero.
			nb := *b
			nb.Index = len(out)
			out = append(out, &nb)
		}
	}
	return out, nil
}

// IsLocal reports whether the block has a replica on node.
func (b *Block) IsLocal(node int) bool {
	for _, r := range b.replicas {
		if r == node {
			return true
		}
	}
	return false
}

// ReadBlock reads a block from the perspective of readerNode: it charges a
// sequential read on the hosting replica's DFS device (preferring a local
// replica) plus a network transfer when remote, and returns the block
// contents. It fails only if every replica has been lost.
func (d *DFS) ReadBlock(p *sim.Proc, b *Block, readerNode int) ([]byte, error) {
	if len(b.replicas) == 0 {
		return nil, fmt.Errorf("dfs: block %s[%d] has no live replicas", b.Path, b.Index)
	}
	src := b.replicas[0]
	for _, r := range b.replicas {
		if r == readerNode {
			src = r
			break
		}
	}
	if !b.mem {
		d.cluster.Node(src).DFSDevice().Read(p, b.Size, true)
	}
	d.cluster.Net.Transfer(p, src, readerNode, b.Size)
	return b.gen(), nil
}

// RegisterResident publishes data as a memory-resident single-block file
// hosted on node — the resident engine's in-memory hand-off between the
// jobs of a chain. The file lives in the same namespace as disk-backed
// files, so any engine (or the reference checker) can read it; reads charge
// no disk I/O, which is exactly the M3R saving the chained-iteration
// experiments measure. The caller must not mutate data afterwards.
func (d *DFS) RegisterResident(path string, node int, data []byte) error {
	if _, ok := d.files[path]; ok {
		return fmt.Errorf("dfs: file %q already exists", path)
	}
	b := &Block{Path: path, Index: 0, Size: int64(len(data)), replicas: []int{node}, mem: true}
	b.gen = func() []byte { return data }
	d.files[path] = &fileMeta{path: path, size: int64(len(data)), blocks: []*Block{b}}
	return nil
}

// Writer appends job output to a DFS file from one node. With replication
// r, each append is written to the local DFS device and transferred to and
// written on r-1 follower nodes, like the HDFS write pipeline.
type Writer struct {
	dfs     *DFS
	meta    *fileMeta
	node    int
	targets []int
	// data is the file's kept contents; the file's single logical block
	// aliases it. Spare capacity is the writer's own: Append grows into it,
	// so appends stay amortized-linear, while a slice Commit adopts has its
	// capacity clipped, so the next Append copies it.
	data []byte
}

// CreateWriter opens path for writing from node. If discard is true, the
// file keeps no payload (sink mode for large benchmark outputs): it is written
// through AppendSize, which charges the I/O of bytes nobody encodes.
func (d *DFS) CreateWriter(path string, node int, discard bool) (*Writer, error) {
	if _, ok := d.files[path]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", path)
	}
	meta := &fileMeta{path: path, discard: discard}
	d.files[path] = meta
	w := &Writer{dfs: d, meta: meta, node: node}
	// Pipeline targets: this node (or the first storage node if this node
	// doesn't store DFS data) plus replication-1 followers.
	storage := d.cluster.StorageNodes()
	primary := -1
	for i, n := range storage {
		if n.ID == node {
			primary = i
			break
		}
	}
	if primary < 0 {
		primary = node % len(storage)
	}
	for r := 0; r < d.replication; r++ {
		w.targets = append(w.targets, storage[(primary+r)%len(storage)].ID)
	}
	return w, nil
}

// Append writes a copy of data to the file through the replication
// pipeline: the file's contents grow by data, then are committed.
func (w *Writer) Append(p *sim.Proc, data []byte) {
	w.commit(p, append(w.data, data...))
}

// Commit extends the file to data, whose first Size bytes are the file's
// current contents, writing the rest through the replication pipeline at
// the charge Append makes for them. The file adopts the slice instead of
// copying it: nobody may write through data[:len(data)] afterwards, but the
// caller may keep encoding past it, since the capacity is clipped — the
// next Commit hands over the longer slice, or a new array holding it.
func (w *Writer) Commit(p *sim.Proc, data []byte) {
	w.commit(p, slices.Clip(data))
}

// commit charges the bytes data adds to the file and installs data as its
// contents.
func (w *Writer) commit(p *sim.Proc, data []byte) {
	if w.meta.discard {
		panic("dfs: payload written to a discarding writer: its bytes were encoded for nothing")
	}
	n := int64(len(data)) - w.meta.size
	if n < 0 {
		panic(fmt.Sprintf("dfs: commit of %d bytes to %q, which holds %d", len(data), w.meta.path, w.meta.size))
	}
	w.charge(p, n)
	// Kept output is modelled as a single logical block on the primary
	// target, which is all tests need to verify contents.
	if len(w.meta.blocks) == 0 {
		b := &Block{Path: w.meta.path, Index: 0, replicas: append([]int(nil), w.targets...)}
		b.gen = func() []byte { return w.data }
		w.meta.blocks = append(w.meta.blocks, b)
	}
	w.data = data
	w.meta.blocks[0].Size += n
}

// AppendSize writes n bytes to a discarding writer's file: the same
// pipeline I/O Append charges for n bytes, with no payload behind it.
func (w *Writer) AppendSize(p *sim.Proc, n int64) {
	if !w.meta.discard {
		panic("dfs: AppendSize on a writer that keeps its payload")
	}
	w.charge(p, n)
}

// charge moves n bytes through the replication pipeline.
func (w *Writer) charge(p *sim.Proc, n int64) {
	for _, t := range w.targets {
		w.dfs.cluster.Net.Transfer(p, w.node, t, n)
		w.dfs.cluster.Node(t).DFSDevice().Write(p, n, true)
	}
	w.meta.size += n
}
