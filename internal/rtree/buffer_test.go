package rtree

import (
	"math/rand"
	"testing"
)

func TestBufferHitsAndMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := BulkLoad(2, randomPoints(rng, 500, 2, 100), 8, nil)

	// Unbuffered: two identical full walks charge twice.
	io := &IOCounter{}
	rd := tr.NewReader(io, nil)
	walk(rd)
	unbuffered := io.Reads
	walk(rd)
	if io.Reads != 2*unbuffered {
		t.Fatalf("unbuffered reads = %d, want %d", io.Reads, 2*unbuffered)
	}

	// Buffered with room for the whole tree: the second walk is free.
	io.Reads = 0
	buf := NewBuffer(tr.NodeCount())
	rd = tr.NewReader(io, buf)
	walk(rd)
	first := io.Reads
	if first != unbuffered {
		t.Fatalf("first buffered walk reads = %d, want %d (cold misses)", first, unbuffered)
	}
	walk(rd)
	if io.Reads != first {
		t.Errorf("second buffered walk charged %d extra reads, want 0", io.Reads-first)
	}
	if buf.Hits() == 0 || buf.Misses() != unbuffered {
		t.Errorf("buffer stats hits=%d misses=%d", buf.Hits(), buf.Misses())
	}
}

func TestBufferEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := BulkLoad(2, randomPoints(rng, 500, 2, 100), 8, nil)
	io := &IOCounter{}
	// A one-page buffer cannot help a multi-node walk much: repeated
	// walks keep missing (apart from possible consecutive root hits).
	rd := tr.NewReader(io, NewBuffer(1))
	walk(rd)
	first := io.Reads
	walk(rd)
	if io.Reads < 2*first-2 {
		t.Errorf("tiny buffer absorbed too many reads: %d after two walks of %d", io.Reads, first)
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(4)
	n := &Node{}
	if b.touch(n) {
		t.Error("first touch must miss")
	}
	if !b.touch(n) {
		t.Error("second touch must hit")
	}
	b.Reset()
	if b.Hits() != 0 || b.Misses() != 0 {
		t.Error("Reset must clear stats")
	}
	if b.touch(n) {
		t.Error("touch after Reset must miss")
	}
}

func TestBufferCapacityClamp(t *testing.T) {
	b := NewBuffer(0) // clamps to 1
	n1, n2 := &Node{}, &Node{}
	b.touch(n1)
	b.touch(n2) // evicts n1
	if b.touch(n1) {
		t.Error("n1 should have been evicted by a capacity-1 buffer")
	}
}
