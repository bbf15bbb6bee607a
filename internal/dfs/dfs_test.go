package dfs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"onepass/internal/cluster"
	"onepass/internal/sim"
)

func newTestCluster(nodes int, split bool) (*sim.Env, *cluster.Cluster) {
	env := sim.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 2
	cfg.SplitStorage = split
	return env, cluster.New(env, cfg)
}

func blockGen(block int, size int64) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte((block*31 + i) % 253)
	}
	return out
}

func TestRegisterSplitsIntoBlocks(t *testing.T) {
	_, c := newTestCluster(4, false)
	d := New(c, 1000, 1)
	if err := d.RegisterGenerated("in", 2500, blockGen); err != nil {
		t.Fatal(err)
	}
	blocks, err := d.Blocks("in")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	if blocks[0].Size != 1000 || blocks[2].Size != 500 {
		t.Fatalf("sizes = %d, %d", blocks[0].Size, blocks[2].Size)
	}
	if sz := d.files["in"].size; sz != 2500 {
		t.Fatalf("size = %d", sz)
	}
}

func TestRegisterDuplicateFails(t *testing.T) {
	_, c := newTestCluster(2, false)
	d := New(c, 1000, 1)
	if err := d.RegisterGenerated("in", 100, blockGen); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterGenerated("in", 100, blockGen); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestPlacementRoundRobinAndReplication(t *testing.T) {
	_, c := newTestCluster(4, false)
	d := New(c, 100, 2)
	if err := d.RegisterGenerated("in", 400, blockGen); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("in")
	counts := make(map[int]int)
	for _, b := range blocks {
		if len(b.replicas) != 2 {
			t.Fatalf("replicas = %v", b.replicas)
		}
		if b.replicas[0] == b.replicas[1] {
			t.Fatal("replicas must be distinct nodes")
		}
		for _, r := range b.replicas {
			counts[r]++
		}
	}
	// 4 blocks x 2 replicas over 4 nodes round-robin: each node gets 2.
	for node, n := range counts {
		if n != 2 {
			t.Fatalf("node %d holds %d replicas, want 2", node, n)
		}
	}
}

func TestReplicationClampedToStorageNodes(t *testing.T) {
	_, c := newTestCluster(2, false)
	d := New(c, 100, 5)
	d.RegisterGenerated("in", 100, blockGen)
	blocks, _ := d.Blocks("in")
	if len(blocks[0].replicas) != 2 {
		t.Fatalf("replicas = %v, want clamped to 2", blocks[0].replicas)
	}
}

func TestLocalReadAvoidsNetwork(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("in", 1000, blockGen)
	blocks, _ := d.Blocks("in")
	local := blocks[0].replicas[0]
	env.Go("r", func(p *sim.Proc) {
		data, err := d.ReadBlock(p, blocks[0], local)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(data, blockGen(0, 1000)) {
			t.Error("content mismatch")
		}
	})
	env.Run()
	if c.Net.BytesTransferred() != 0 {
		t.Fatalf("local read moved %v network bytes", c.Net.BytesTransferred())
	}
}

func TestRemoteReadUsesNetwork(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("in", 1000, blockGen)
	blocks, _ := d.Blocks("in")
	owner := blocks[0].replicas[0]
	remote := (owner + 1) % 3
	env.Go("r", func(p *sim.Proc) {
		if _, err := d.ReadBlock(p, blocks[0], remote); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if c.Net.BytesTransferred() != 1000 {
		t.Fatalf("network bytes = %v, want 1000", c.Net.BytesTransferred())
	}
	if got := c.Node(owner).DFSDevice().BytesRead(); got != 1000 {
		t.Fatalf("owner disk read = %v", got)
	}
}

func TestIsLocal(t *testing.T) {
	_, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("in", 1000, blockGen)
	blocks, _ := d.Blocks("in")
	owner := blocks[0].replicas[0]
	if !blocks[0].IsLocal(owner) {
		t.Fatal("owner should be local")
	}
	if blocks[0].IsLocal(owner + 1) {
		t.Fatal("non-owner should not be local")
	}
}

// killReplica drops node's copy of b, as the loss of a DataNode's disk
// would.
func killReplica(b *Block, node int) {
	b.replicas = slices.DeleteFunc(b.replicas, func(r int) bool { return r == node })
}

func TestReplicaFailover(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 2)
	d.RegisterGenerated("in", 1000, blockGen)
	blocks, _ := d.Blocks("in")
	first := blocks[0].replicas[0]
	killReplica(blocks[0], first)
	env.Go("r", func(p *sim.Proc) {
		data, err := d.ReadBlock(p, blocks[0], first)
		if err != nil {
			t.Errorf("read after replica loss: %v", err)
		}
		if !bytes.Equal(data, blockGen(0, 1000)) {
			t.Error("content mismatch after failover")
		}
	})
	env.Run()
}

func TestAllReplicasLostFails(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("in", 1000, blockGen)
	blocks, _ := d.Blocks("in")
	killReplica(blocks[0], blocks[0].replicas[0])
	env.Go("r", func(p *sim.Proc) {
		if _, err := d.ReadBlock(p, blocks[0], 0); err == nil {
			t.Error("expected error with no replicas")
		}
	})
	env.Run()
}

func TestBlocksMissingFile(t *testing.T) {
	_, c := newTestCluster(2, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("in", 1000, blockGen)
	if _, err := d.Blocks("nope"); err == nil {
		t.Fatal("expected an error for a file that was never registered")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	env.Go("w", func(p *sim.Proc) {
		w, err := d.CreateWriter("out", 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		w.Append(p, []byte("hello "))
		w.Append(p, []byte("world"))
	})
	env.Run()
	if sz := d.files["out"].size; sz != 11 {
		t.Fatalf("size = %d", sz)
	}
	blocks, _ := d.Blocks("out")
	if got := blocks[0].gen(); !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("content = %q", got)
	}
	// Written on node 1's device.
	if got := c.Node(1).DFSDevice().BytesWritten(); got != 11 {
		t.Fatalf("disk bytes = %v", got)
	}
}

func TestWriterReplicationPipeline(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 2)
	env.Go("w", func(p *sim.Proc) {
		w, err := d.CreateWriter("out", 0, true)
		if err != nil {
			t.Error(err)
			return
		}
		w.AppendSize(p, 500)
	})
	env.Run()
	if got := c.DiskBytesWritten(); got != 1000 {
		t.Fatalf("total disk writes = %v, want 1000 (2 replicas)", got)
	}
	if got := c.Net.BytesTransferred(); got != 500 {
		t.Fatalf("network = %v, want 500 (one remote follower)", got)
	}
}

func TestWriterFromComputeNodeInSplitTopology(t *testing.T) {
	env, c := newTestCluster(4, true) // storage {0,1}, compute {2,3}
	d := New(c, 1000, 1)
	env.Go("w", func(p *sim.Proc) {
		w, err := d.CreateWriter("out", 3, true)
		if err != nil {
			t.Error(err)
			return
		}
		w.AppendSize(p, 100)
	})
	env.Run()
	// Output must land on a storage node's disk, over the network.
	if got := c.Net.BytesTransferred(); got != 100 {
		t.Fatalf("network = %v, want 100", got)
	}
	if got := c.Node(3).DFSDevice().BytesWritten(); got != 0 {
		t.Fatalf("compute node wrote %v locally, want 0", got)
	}
}

// A discarding writer is charged from sizes alone: the same instants, device
// writes, network bytes and file size as the payload Append would have kept.
func TestAppendSizeChargesAsAppend(t *testing.T) {
	sizes := []int{0, 1, 700, 1000, 2500}
	type charged struct {
		at          []sim.Time
		disk, net   float64
		size        int64
		blocks      int
		dev1Written float64
	}
	run := func(discard bool) charged {
		env, c := newTestCluster(3, false)
		d := New(c, 1000, 2)
		var got charged
		env.Go("w", func(p *sim.Proc) {
			w, err := d.CreateWriter("out", 1, discard)
			if err != nil {
				t.Error(err)
				return
			}
			for _, n := range sizes {
				if discard {
					w.AppendSize(p, int64(n))
				} else {
					w.Append(p, make([]byte, n))
				}
				got.at = append(got.at, p.Now())
			}
		})
		env.Run()
		got.disk, got.net = c.DiskBytesWritten(), c.Net.BytesTransferred()
		got.size = d.files["out"].size
		blocks, _ := d.Blocks("out")
		got.blocks = len(blocks)
		got.dev1Written = c.Node(1).DFSDevice().BytesWritten()
		return got
	}
	kept, discarded := run(false), run(true)
	if discarded.blocks != 0 {
		t.Fatalf("discarding writer kept %d blocks", discarded.blocks)
	}
	kept.blocks = 0
	if !reflect.DeepEqual(kept, discarded) {
		t.Fatalf("AppendSize charged %+v, Append %+v", discarded, kept)
	}
}

// Append on a discarding writer means a caller encoded bytes nobody reads;
// AppendSize on a keeping one would leave a file shorter than its size.
func TestWriterModesAreExclusive(t *testing.T) {
	for _, tc := range []struct {
		discard bool
		write   func(p *sim.Proc, w *Writer)
	}{
		{true, func(p *sim.Proc, w *Writer) { w.Append(p, []byte("x")) }},
		{false, func(p *sim.Proc, w *Writer) { w.AppendSize(p, 1) }},
	} {
		env, c := newTestCluster(2, false)
		d := New(c, 1000, 1)
		w, err := d.CreateWriter("out", 0, tc.discard)
		if err != nil {
			t.Fatal(err)
		}
		panicked := false
		env.Go("w", func(p *sim.Proc) {
			defer func() { panicked = recover() != nil }()
			tc.write(p, w)
		})
		env.Run()
		if !panicked {
			t.Errorf("discard=%v: the wrong append did not panic", tc.discard)
		}
	}
}

func TestCreateWriterDuplicateFails(t *testing.T) {
	_, c := newTestCluster(2, false)
	d := New(c, 1000, 1)
	if _, err := d.CreateWriter("x", 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateWriter("x", 0, true); err == nil {
		t.Fatal("expected duplicate error")
	}
}

// Property: for any file size and block size, the blocks partition the file
// exactly and every block read returns its generator content.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(size uint32, blockSize uint16) bool {
		bs := int64(blockSize%5000) + 1
		total := int64(size % 100000)
		_, c := newTestCluster(3, false)
		d := New(c, bs, 1)
		if err := d.RegisterGenerated("f", total, func(b int, s int64) []byte { return make([]byte, s) }); err != nil {
			return false
		}
		blocks, _ := d.Blocks("f")
		var sum int64
		for i, b := range blocks {
			if b.Index != i {
				return false
			}
			if b.Size <= 0 || b.Size > bs {
				return false
			}
			sum += b.Size
		}
		wantBlocks := int((total + bs - 1) / bs)
		return sum == total && len(blocks) == wantBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyGenerationIsDeterministic(t *testing.T) {
	env, c := newTestCluster(2, false)
	d := New(c, 1<<10, 1)
	calls := 0
	d.RegisterGenerated("in", 1<<10, func(b int, s int64) []byte {
		calls++
		return blockGen(b, s)
	})
	blocks, _ := d.Blocks("in")
	var first, second []byte
	env.Go("r", func(p *sim.Proc) {
		first, _ = d.ReadBlock(p, blocks[0], 0)
		second, _ = d.ReadBlock(p, blocks[0], 0)
	})
	env.Run()
	if calls != 2 {
		t.Fatalf("generator calls = %d, want 2 (lazy, uncached)", calls)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-reads must be identical")
	}
}

func TestRegisterStreamArrivalTimes(t *testing.T) {
	_, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	// 4 blocks at 500 bytes/sec: block i available at (i+1)*2 seconds.
	if err := d.RegisterStream("s", 4000, 500, blockGen); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.Blocks("s")
	for i, b := range blocks {
		want := sim.Time(int64(i+1) * 2 * int64(sim.Second))
		if b.AvailableAt != want {
			t.Fatalf("block %d available at %v, want %v", i, b.AvailableAt, want)
		}
	}
	// Preloaded files have zero arrival times.
	d.RegisterGenerated("p", 2000, blockGen)
	pre, _ := d.Blocks("p")
	for _, b := range pre {
		if b.AvailableAt != 0 {
			t.Fatal("preloaded block has nonzero arrival time")
		}
	}
}

func TestBlocksUnderPrefix(t *testing.T) {
	_, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("out/part-0", 1500, blockGen)
	d.RegisterGenerated("out/part-1", 800, blockGen)
	d.RegisterGenerated("outlier", 500, blockGen)
	blocks, err := d.BlocksUnder("out")
	if err != nil {
		t.Fatal(err)
	}
	// part-0 has 2 blocks, part-1 has 1; "outlier" must not match.
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	for i, b := range blocks {
		if b.Index != i {
			t.Fatalf("block %d has index %d — chained task ids must be unique", i, b.Index)
		}
	}
	if _, err := d.BlocksUnder("nope"); err == nil {
		t.Fatal("missing prefix must error")
	}
}

// A job's part files are the files directly under its output path: the
// hot-key engine's early answers in <output>/early/ are not among them.
func TestBlocksUnderSkipsSubdirectories(t *testing.T) {
	_, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	d.RegisterGenerated("out/early/part-0", 500, blockGen)
	d.RegisterGenerated("out/part-0", 800, blockGen)
	blocks, err := d.BlocksUnder("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].Path != "out/part-0" {
		t.Fatalf("blocks under out: %d, first %q; want out/part-0's alone", len(blocks), blocks[0].Path)
	}
	if _, err := d.BlocksUnder("out/early"); err != nil {
		t.Fatalf("the early answers are a directory of their own: %v", err)
	}
}

// Commit adopts the caller's bytes: the file aliases them, the caller may
// keep writing past the committed length without the file seeing it, and
// an Append after a Commit copies rather than growing into the caller's
// array.
func TestCommitAdoptsAndClips(t *testing.T) {
	env, c := newTestCluster(3, false)
	d := New(c, 1000, 1)
	buf := make([]byte, 0, 64)
	env.Go("w", func(p *sim.Proc) {
		w, err := d.CreateWriter("out", 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		buf = append(buf, "hello"...)
		w.Commit(p, buf)
		buf = append(buf, " world"...)
		w.Append(p, []byte("!"))
	})
	env.Run()
	blocks, _ := d.Blocks("out")
	got := blocks[0].Peek()
	if string(got) != "hello!" || string(buf) != "hello world" {
		t.Fatalf("file %q, caller's buffer %q", got, buf)
	}
	if sz := d.files["out"].size; sz != 6 || blocks[0].Size != 6 {
		t.Fatalf("size %d, block size %d, want 6", sz, blocks[0].Size)
	}
}

// FuzzCommitMatchesAppend holds Commit to Append's charge path: a sequence
// of commits, each extending the file by some bytes the caller encoded
// past its last commit (in place, or in a grown array), charges the same
// pipeline I/O — the instant each write ends, device and network bytes —
// and leaves the same bytes as Appending each increment. Each input byte is
// one step: its low six bits are the increment's length (times 97 when
// bit 6 is set), and its top bit makes the step an Append on both sides.
// After every step each file must Peek as exactly what was written.
func FuzzCommitMatchesAppend(f *testing.F) {
	f.Add([]byte{0x05, 0x45, 0x00, 0x85, 0x3f})
	f.Add([]byte{0x7f, 0x7f, 0x81, 0x01, 0x7f})
	f.Add([]byte{0x80, 0x80, 0x00, 0x40})
	type charged struct {
		at        []sim.Time
		disk, net float64
		dev1      float64
		size      int64
	}
	run := func(t *testing.T, steps []byte, commit bool) charged {
		env, c := newTestCluster(3, false)
		d := New(c, 1000, 2)
		var got charged
		env.Go("w", func(p *sim.Proc) {
			w, err := d.CreateWriter("out", 1, false)
			if err != nil {
				t.Error(err)
				return
			}
			var want, buf []byte
			for i, step := range steps {
				n := int(step & 0x3f)
				if step&0x40 != 0 {
					n *= 97
				}
				inc := make([]byte, n)
				for j := range inc {
					inc[j] = byte(i*7 + j)
				}
				want = append(want, inc...)
				switch {
				case !commit || step&0x80 != 0:
					w.Append(p, inc)
					buf = append(buf, inc...)
				default:
					buf = append(buf, inc...)
					w.Commit(p, buf)
				}
				got.at = append(got.at, p.Now())
				if blocks, _ := d.Blocks("out"); len(blocks) != 1 || !bytes.Equal(blocks[0].Peek(), want) ||
					blocks[0].Size != int64(len(want)) {
					t.Errorf("step %d (commit=%v): the file does not hold the %d bytes written", i, commit, len(want))
					return
				}
			}
		})
		env.Run()
		got.disk, got.net = c.DiskBytesWritten(), c.Net.BytesTransferred()
		got.dev1 = c.Node(1).DFSDevice().BytesWritten()
		got.size = d.files["out"].size
		return got
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		appended, committed := run(t, steps, false), run(t, steps, true)
		if !reflect.DeepEqual(appended, committed) {
			t.Fatalf("Commit charged %+v, Append %+v", committed, appended)
		}
	})
}
