package rtree

import "container/list"

// Buffer is an LRU page buffer shared by one or more Readers: node
// visits that hit the buffer are not charged to the IO counter. The
// paper's §VI-B observes that TSS's IO cost — unlike SDC+'s CPU-heavy
// cross-examination — "can be mitigated (to some extent) using
// buffers"; the buffered ablation benchmark quantifies exactly that.
//
// The zero value is not usable; construct with NewBuffer. A nil *Buffer
// on a Reader means every access is charged.
type Buffer struct {
	capacity int
	lru      *list.List // front = most recent; values are *Node
	pos      map[*Node]*list.Element
	hits     int64
	misses   int64
}

// NewBuffer creates a buffer holding up to capacity pages.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{
		capacity: capacity,
		lru:      list.New(),
		pos:      make(map[*Node]*list.Element, capacity),
	}
}

// touch records an access to n: true on hit (no IO charge), false on
// miss (the caller charges one page read and the page is cached,
// evicting the least recently used page if full).
func (b *Buffer) touch(n *Node) bool {
	if el, ok := b.pos[n]; ok {
		b.lru.MoveToFront(el)
		b.hits++
		return true
	}
	b.misses++
	if b.lru.Len() >= b.capacity {
		back := b.lru.Back()
		delete(b.pos, back.Value.(*Node))
		b.lru.Remove(back)
	}
	b.pos[n] = b.lru.PushFront(n)
	return false
}

// Hits returns the number of buffered accesses so far.
func (b *Buffer) Hits() int64 { return b.hits }

// Misses returns the number of accesses charged as page reads.
func (b *Buffer) Misses() int64 { return b.misses }

// Reset empties the buffer and zeroes its statistics.
func (b *Buffer) Reset() {
	b.lru.Init()
	b.pos = make(map[*Node]*list.Element, b.capacity)
	b.hits, b.misses = 0, 0
}
