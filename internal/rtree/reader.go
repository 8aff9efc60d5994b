package rtree

// Reader is a read-only traversal handle over a tree and the only way
// to navigate one node by node (Root / RootNoIO / Open): node visits
// are charged to the reader's own counter and buffer, so any number of
// concurrent queries can share one tree. Structural accessors stay on
// the tree itself.
type Reader struct {
	t   *Tree
	io  *IOCounter
	buf *Buffer
}

// NewReader creates a traversal handle charging node visits to io
// (nil disables accounting) through the optional LRU buffer buf.
func (t *Tree) NewReader(io *IOCounter, buf *Buffer) *Reader {
	return &Reader{t: t, io: io, buf: buf}
}

// Root returns the root node, charging one page read (buffer
// permitting) to the reader's counter.
func (r *Reader) Root() *Node {
	r.chargeRead(r.t.root)
	return r.t.root
}

// RootNoIO returns the root without charging a page read — the
// packed-roots layout accounts root storage separately.
func (r *Reader) RootNoIO() *Node { return r.t.root }

// Open dereferences an internal entry's child node, charging one page
// read (buffer permitting) to the reader's counter.
func (r *Reader) Open(e Entry) *Node {
	if e.child == nil {
		panic("rtree: Open on a leaf entry")
	}
	r.chargeRead(e.child)
	return e.child
}

// chargeRead accounts one node visit against the reader's counter,
// honouring the reader's buffer.
func (r *Reader) chargeRead(n *Node) {
	if r.io == nil {
		return
	}
	if r.buf != nil && r.buf.touch(n) {
		return
	}
	r.io.Reads++
}
