// Package btree implements a page-based B+tree with variable-length byte
// keys and values over the simulated disk of internal/pager.
//
// Section 4.1 of "Querying Network Directories" assumes atomic queries
// are supported "with the help of B-tree indices for integer and
// distinguishedName filters"; this package provides those indexes. The
// directory store builds one tree over reverse-DN keys (making the sub
// scope a single contiguous range scan) and one over composite
// (attribute, value, reverse-DN) keys for attribute filters.
//
// Nodes are never decoded into Go values: searches, scans and edits
// read and write the bytes of the buffer-pool frame holding the page,
// while that frame is pinned. Get copies out only the value it returns;
// Scan hands its callback key and value slices that alias the pinned
// page and are valid only until the callback returns. Insert and Delete
// shift a page's items in place when the result still fits, and split a
// node only on overflow, through scratch buffers owned by the tree, so a
// write that splits nothing allocates nothing. Every length read from a
// page is checked against the page end: a malformed page yields
// ErrCorrupt, never a panic.
//
// Interior pages are cached in a pinning buffer pool so repeated
// traversals cost I/O only at the leaf level; all page traffic is
// counted by the underlying disk.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pager"
)

// Page layout:
//
//	byte 0:      1 if leaf
//	bytes 1..2:  number of items (uint16)
//	bytes 3..6:  next-leaf page id (leaves) or first child id (interior)
//	then per item:
//	  uvarint klen, key bytes,
//	  leaf:     uvarint vlen, value bytes
//	  interior: uint32 child page id (subtree with keys >= this key)
//
// Bytes past the last item are zero.
const (
	hdrSize = 7
	// maxDepth bounds a descent: a real tree of 2^32 pages is far
	// shallower, so a deeper path can only be a cycle of corrupt pages.
	maxDepth = 64
)

// Tree is a B+tree. Keys are unique; Insert of an existing key replaces
// its value.
//
// Readers (Get, Scan) may run concurrently with each other. Writers
// (Insert, Delete) must be serialized with each other and with readers:
// they edit pool frames in place and share the scratch below.
type Tree struct {
	pool *pager.Pool
	root pager.PageID
	n    int // number of keys

	// Insert scratch, reused across calls: the descent's path, one
	// promoted separator per depth, the image of an overflowing node and
	// its item offsets.
	path []step
	seps [][]byte
	img  []byte
	offs []int
}

// Errors returned by tree operations.
var (
	ErrNotFound = errors.New("btree: key not found")
	ErrTooBig   = errors.New("btree: key/value exceeds page capacity")
	// ErrCorrupt reports page bytes that do not form a node: a short
	// page, a key or value length running past the page end, a leaf
	// chain reaching an interior page, or a descent or leaf chain that
	// cannot end.
	ErrCorrupt = errors.New("btree: corrupt page")
)

// New creates an empty tree on disk using a pool of the given capacity
// (minimum 8 frames).
func New(disk *pager.Disk, poolPages int) (*Tree, error) {
	if poolPages < 8 {
		poolPages = 8
	}
	pool := pager.NewPool(disk, poolPages)
	f, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	f.Data[0] = 1 // an empty leaf: no items, no next leaf
	f.SetDirty()
	id := f.ID
	pool.Unpin(f)
	return &Tree{pool: pool, root: id}, nil
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.n }

// Root returns the root page id, for snapshot manifests.
func (t *Tree) Root() pager.PageID { return t.root }

// Open attaches to a tree previously built on disk, identified by its
// root page and key count (from Root/Len). The tree must have been
// flushed before the disk was snapshotted.
func Open(disk *pager.Disk, poolPages int, root pager.PageID, n int) *Tree {
	if poolPages < 8 {
		poolPages = 8
	}
	return &Tree{pool: pager.NewPool(disk, poolPages), root: root, n: n}
}

// Flush writes all dirty buffered pages to disk.
func (t *Tree) Flush() error { return t.pool.Flush() }

func corrupt(id pager.PageID, err error) error {
	return fmt.Errorf("%w (page %d)", err, id)
}

// cursor walks the items of one node page in place. Its slices alias
// the page: they are valid only while the page's frame stays pinned.
type cursor struct {
	pg   []byte
	leaf bool
	n    int    // items on the page
	i    int    // index of the current item; i == n past the last one
	off  int    // byte offset of the current item (the used size when i == n)
	next int    // byte offset of the item after the current one
	key  []byte // current item's key
	val  []byte // its value (leaf) or 4-byte child id (interior)
}

// openNode positions a cursor at the first item of node page pg.
func openNode(pg []byte) (cursor, error) {
	if len(pg) < hdrSize {
		return cursor{}, ErrCorrupt
	}
	c := cursor{pg: pg, leaf: pg[0] == 1, n: int(binary.LittleEndian.Uint16(pg[1:])), off: hdrSize}
	return c, c.load()
}

// link returns the header's page id: a leaf's next leaf, an interior
// node's first child.
func (c *cursor) link() pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(c.pg[3:])) }

func (c *cursor) valid() bool { return c.i < c.n }

// child returns the page id held by the current interior item.
func (c *cursor) child() pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(c.val)) }

// load parses the item at c.off, checking every length against the
// page end. The slices are capped so an append cannot write the page.
func (c *cursor) load() error {
	if c.i >= c.n {
		c.next, c.key, c.val = c.off, nil, nil
		return nil
	}
	pg, off := c.pg, c.off
	klen, m := binary.Uvarint(pg[off:])
	if m <= 0 || klen > uint64(len(pg)-off-m) {
		return ErrCorrupt
	}
	off += m
	end := off + int(klen)
	c.key = pg[off:end:end]
	off = end
	if c.leaf {
		vlen, m := binary.Uvarint(pg[off:])
		if m <= 0 || vlen > uint64(len(pg)-off-m) {
			return ErrCorrupt
		}
		off += m
		end = off + int(vlen)
	} else if end = off + 4; end > len(pg) {
		return ErrCorrupt
	}
	c.val = pg[off:end:end]
	c.next = end
	return nil
}

func (c *cursor) advance() error {
	c.i++
	c.off = c.next
	return c.load()
}

// end returns the used size of the page: the offset past its last item.
// The receiver is a copy, so the caller's position is kept.
func (c cursor) end() (int, error) {
	for c.valid() {
		if err := c.advance(); err != nil {
			return 0, err
		}
	}
	return c.off, nil
}

// seek positions a cursor over node page pg for key. In a leaf it stops
// at the first item whose key is >= key; in an interior node at the
// first separator > key, and child is the subtree that may hold key.
func seek(pg, key []byte) (c cursor, child pager.PageID, err error) {
	if c, err = openNode(pg); err != nil {
		return c, 0, err
	}
	if !c.leaf {
		child = c.link()
	}
	for c.valid() {
		cmp := bytes.Compare(c.key, key)
		if cmp > 0 || (cmp == 0 && c.leaf) {
			break
		}
		if !c.leaf {
			child = c.child()
		}
		if err = c.advance(); err != nil {
			return c, 0, err
		}
	}
	return c, child, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// itemSize is the encoded size of an item; an interior item's val is
// its 4-byte child id.
func itemSize(leaf bool, key, val []byte) int {
	sz := uvarintLen(uint64(len(key))) + len(key) + len(val)
	if leaf {
		sz += uvarintLen(uint64(len(val)))
	}
	return sz
}

// putItem encodes an item at the start of dst.
func putItem(dst []byte, leaf bool, key, val []byte) {
	off := binary.PutUvarint(dst, uint64(len(key)))
	off += copy(dst[off:], key)
	if leaf {
		off += binary.PutUvarint(dst[off:], uint64(len(val)))
	}
	copy(dst[off:], val)
}

// findLeaf descends from the root to the leaf that may hold key, charging
// pool misses to m, and returns the leaf's frame still pinned with a
// cursor at its first item whose key is >= key.
func (t *Tree) findLeaf(key []byte, m *pager.Meter) (*pager.Frame, cursor, error) {
	id := t.root
	for depth := 0; depth < maxDepth; depth++ {
		f, err := t.pool.GetMetered(id, m)
		if err != nil {
			return nil, cursor{}, err
		}
		c, child, err := seek(f.Data, key)
		if err != nil {
			t.pool.Unpin(f)
			return nil, cursor{}, corrupt(id, err)
		}
		if c.leaf {
			return f, c, nil
		}
		t.pool.Unpin(f)
		id = child
	}
	return nil, cursor{}, corrupt(id, ErrCorrupt)
}

// Get returns a copy of the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) {
	return t.GetMetered(key, nil)
}

// GetMetered is Get with per-query I/O attribution: pool misses along
// the root-to-leaf path are charged to m. Safe for concurrent readers
// (the pool serializes its own bookkeeping; the meter is atomic).
func (t *Tree) GetMetered(key []byte, m *pager.Meter) ([]byte, error) {
	f, c, err := t.findLeaf(key, m)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(f)
	if !c.valid() || !bytes.Equal(c.key, key) {
		return nil, ErrNotFound
	}
	v := make([]byte, len(c.val))
	copy(v, c.val)
	return v, nil
}

// MaxItem returns the largest key+value size the tree accepts for its
// page size. The bound guarantees a byte-balanced split always fits:
// after an overflow the node holds at most pageSize + MaxItem payload
// bytes; the left half exceeds half the total by at most one item, so
// it stays within pageSize/2 + 1.5*MaxItem + header <= pageSize when
// MaxItem <= pageSize/3 - 8.
func (t *Tree) MaxItem() int { return t.pool.Disk().PageSize()/3 - 8 }

// step is one level of an insert's descent: where in the page a new
// item goes.
type step struct {
	id   pager.PageID
	off  int // byte offset of the new item
	skip int // bytes of the existing item it replaces (leaf, key present)
	end  int // used size of the page
	n    int // items on the page
}

// Insert stores (key, value), replacing any existing value for key.
func (t *Tree) Insert(key, value []byte) error {
	if len(key)+len(value) > t.MaxItem() {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	if err := t.descend(key); err != nil {
		return err
	}
	replaced := t.path[len(t.path)-1].skip > 0
	// Ascend, placing the new item in the leaf and each promoted
	// separator in its parent. Every node on the path is marked dirty,
	// changed or not: the page-write and dirty-page counts of the
	// directory's experiments rest on that.
	var child [4]byte
	item, val, leaf := key, value, true
	var right pager.PageID
	for d := len(t.path) - 1; d >= 0; d-- {
		if !leaf && right == 0 {
			if err := t.touch(t.path[d].id); err != nil {
				return err
			}
			continue
		}
		sep, r, err := t.place(d, leaf, item, val)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(child[:], uint32(r))
		item, val, leaf, right = sep, child[:], false, r
	}
	if !replaced {
		t.n++
	}
	if right != 0 {
		// Root split: a new interior root over the old root and right.
		f, err := t.pool.Alloc()
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(f.Data[1:], 1)
		binary.LittleEndian.PutUint32(f.Data[3:], uint32(t.root))
		putItem(f.Data[hdrSize:], false, item, val)
		f.SetDirty()
		t.root = f.ID
		t.pool.Unpin(f)
	}
	return nil
}

// descend records in t.path the root-to-leaf path for key.
func (t *Tree) descend(key []byte) error {
	t.path = t.path[:0]
	id := t.root
	for len(t.path) < maxDepth {
		f, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		c, child, err := seek(f.Data, key)
		st := step{id: id, off: c.off, n: c.n}
		if err == nil {
			if c.leaf && c.valid() && bytes.Equal(c.key, key) {
				st.skip = c.next - c.off
			}
			st.end, err = c.end()
		}
		t.pool.Unpin(f)
		if err != nil {
			return corrupt(id, err)
		}
		t.path = append(t.path, st)
		if c.leaf {
			return nil
		}
		id = child
	}
	return corrupt(id, ErrCorrupt)
}

// touch marks page id dirty without changing it.
func (t *Tree) touch(id pager.PageID) error {
	f, err := t.pool.Get(id)
	if err != nil {
		return err
	}
	f.SetDirty()
	t.pool.Unpin(f)
	return nil
}

// place writes an item into the node at path depth d: in place when the
// result fits the page, otherwise by splitting the node. A split
// returns the separator to promote (in depth d's scratch) and the new
// right sibling.
func (t *Tree) place(d int, leaf bool, key, val []byte) ([]byte, pager.PageID, error) {
	st := &t.path[d]
	size := itemSize(leaf, key, val)
	used := st.end - st.skip + size
	if used > t.pool.Disk().PageSize() {
		return t.split(d, leaf, key, val, used)
	}
	f, err := t.pool.Get(st.id)
	if err != nil {
		return nil, 0, err
	}
	pg := f.Data
	copy(pg[st.off+size:used], pg[st.off+st.skip:st.end])
	putItem(pg[st.off:], leaf, key, val)
	if used < st.end {
		clear(pg[used:st.end])
	}
	if st.skip == 0 {
		binary.LittleEndian.PutUint16(pg[1:], uint16(st.n+1))
	}
	f.SetDirty()
	t.pool.Unpin(f)
	return nil, 0, nil
}

// split places an item into the node at path depth d, which then holds
// used bytes — more than a page — by moving its upper half to a new
// right sibling. The split point balances bytes, not item counts: with
// variable-length keys a count split can leave one half still
// oversized.
func (t *Tree) split(d int, leaf bool, key, val []byte, used int) ([]byte, pager.PageID, error) {
	st := &t.path[d]
	rf, err := t.pool.Alloc()
	if err != nil {
		return nil, 0, err
	}
	defer t.pool.Unpin(rf)
	lf, err := t.pool.Get(st.id)
	if err != nil {
		return nil, 0, err
	}
	defer t.pool.Unpin(lf)

	// The overflowing node's image, with the new item in place.
	size := itemSize(leaf, key, val)
	if cap(t.img) < used {
		t.img = make([]byte, used)
	}
	img := t.img[:used]
	copy(img, lf.Data[:st.off])
	putItem(img[st.off:], leaf, key, val)
	copy(img[st.off+size:], lf.Data[st.off+st.skip:st.end])
	n := st.n
	if st.skip == 0 {
		n++
	}
	c := cursor{pg: img, leaf: leaf, n: n, off: hdrSize}
	t.offs = t.offs[:0]
	for err = c.load(); err == nil && c.valid(); err = c.advance() {
		t.offs = append(t.offs, c.off)
	}
	if err != nil {
		return nil, 0, corrupt(st.id, err)
	}
	offs := append(t.offs, c.off)
	t.offs = offs

	total := used - hdrSize
	mid := n / 2
	for i, acc := 0, 0; i < n; i++ {
		acc += offs[i+1] - offs[i]
		if acc >= total/2 {
			mid = min(i+1, n-1)
			break
		}
	}
	// Item mid's key becomes the separator. A leaf keeps it as the
	// right sibling's first key; an interior node moves it up and its
	// child becomes the right sibling's first child.
	sc := cursor{pg: img, leaf: leaf, n: n, i: mid, off: offs[mid]}
	if err := sc.load(); err != nil {
		return nil, 0, corrupt(st.id, err)
	}
	rightFrom, rightN, first := offs[mid], n-mid, binary.LittleEndian.Uint32(img[3:])
	if !leaf {
		rightFrom, rightN, first = offs[mid+1], n-mid-1, binary.LittleEndian.Uint32(sc.val)
	}
	ps := t.pool.Disk().PageSize()
	if offs[mid] > ps || hdrSize+used-rightFrom > ps {
		return nil, 0, corrupt(st.id, ErrCorrupt) // an item larger than MaxItem
	}
	for len(t.seps) <= d {
		t.seps = append(t.seps, nil)
	}
	sep := append(t.seps[d][:0], sc.key...)
	t.seps[d] = sep

	rp := rf.Data
	if leaf {
		rp[0] = 1
	}
	binary.LittleEndian.PutUint16(rp[1:], uint16(rightN))
	binary.LittleEndian.PutUint32(rp[3:], first)
	copy(rp[hdrSize:], img[rightFrom:])
	rf.SetDirty()

	lp := lf.Data
	copy(lp, img[:offs[mid]])
	clear(lp[offs[mid]:])
	binary.LittleEndian.PutUint16(lp[1:], uint16(mid))
	if leaf {
		binary.LittleEndian.PutUint32(lp[3:], uint32(rf.ID))
	}
	lf.SetDirty()
	return sep, rf.ID, nil
}

// Delete removes key. Pages are not rebalanced or reclaimed (lazy
// deletion); the directory workload is read-mostly.
func (t *Tree) Delete(key []byte) error {
	f, c, err := t.findLeaf(key, nil)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(f)
	if !c.valid() || !bytes.Equal(c.key, key) {
		return ErrNotFound
	}
	end, err := c.end()
	if err != nil {
		return corrupt(f.ID, err)
	}
	pg := f.Data
	copy(pg[c.off:], pg[c.next:end])
	clear(pg[end-(c.next-c.off) : end])
	binary.LittleEndian.PutUint16(pg[1:], uint16(c.n-1))
	f.SetDirty()
	t.n--
	return nil
}

// Scan calls fn for each (key, value) with lo <= key < hi in key order,
// stopping if fn returns false. A nil hi means "to the end". The key
// and value slices alias the pinned page: they are valid only until fn
// returns, and fn must not modify the tree.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.ScanMetered(lo, hi, nil, fn)
}

// ScanMetered is Scan with per-query I/O attribution (see GetMetered).
func (t *Tree) ScanMetered(lo, hi []byte, m *pager.Meter, fn func(key, value []byte) bool) error {
	f, c, err := t.findLeaf(lo, m)
	if err != nil {
		return err
	}
	hops, limit := 0, -1
	for {
		for c.valid() {
			if (hi != nil && bytes.Compare(c.key, hi) >= 0) || !fn(c.key, c.val) {
				t.pool.Unpin(f)
				return nil
			}
			if err := c.advance(); err != nil {
				t.pool.Unpin(f)
				return corrupt(f.ID, err)
			}
		}
		next := c.link()
		t.pool.Unpin(f)
		if next == 0 {
			return nil
		}
		// A leaf chain longer than the disk has pages is a cycle.
		if hops++; limit < 0 {
			limit = t.pool.Disk().NumPages()
		}
		if hops > limit {
			return corrupt(next, ErrCorrupt)
		}
		if f, err = t.pool.GetMetered(next, m); err != nil {
			return err
		}
		if c, err = openNode(f.Data); err == nil && !c.leaf {
			err = ErrCorrupt
		}
		if err != nil {
			t.pool.Unpin(f)
			return corrupt(next, err)
		}
	}
}

// ScanPrefix scans all keys beginning with prefix.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	hi := prefixUpperBound(prefix)
	return t.Scan(prefix, hi, fn)
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix, or nil if there is none.
func prefixUpperBound(prefix []byte) []byte {
	hi := append([]byte(nil), prefix...)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] < 0xff {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}
