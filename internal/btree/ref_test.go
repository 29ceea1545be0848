package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// refTree is the decode-based B+tree the package used to be: every node
// visited is decoded into a node value and re-encoded on write. It
// stays here as the byte-identity oracle for the in-place tree — the
// same operations on both must leave identical page images and
// identical page I/O.
type refTree struct {
	pool *pager.Pool
	root pager.PageID
	n    int
}

func newRefTree(disk *pager.Disk, poolPages int) (*refTree, error) {
	if poolPages < 8 {
		poolPages = 8
	}
	pool := pager.NewPool(disk, poolPages)
	f, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	root := &node{leaf: true}
	root.encode(f.Data)
	f.SetDirty()
	id := f.ID
	pool.Unpin(f)
	return &refTree{pool: pool, root: id}, nil
}

func (t *refTree) Flush() error { return t.pool.Flush() }

func (t *refTree) Len() int { return t.n }

// node is the decoded form of a tree page.
//
// Page layout:
//
//	byte 0:      1 if leaf
//	bytes 1..2:  number of keys (uint16)
//	bytes 3..6:  next-leaf page id (leaves) or first child id (interior)
//	then per key:
//	  uvarint klen, key bytes,
//	  leaf:     uvarint vlen, value bytes
//	  interior: uint32 child page id (subtree with keys >= this key)
type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only; len == len(keys)
	children []pager.PageID // interior only; len == len(keys)+1
	next     pager.PageID   // leaf chain
}

func (nd *node) encodedSize() int {
	sz := 7
	for i, k := range nd.keys {
		sz += uvarintLen(uint64(len(k))) + len(k)
		if nd.leaf {
			sz += uvarintLen(uint64(len(nd.vals[i]))) + len(nd.vals[i])
		} else {
			sz += 4
		}
	}
	return sz
}

func (nd *node) encode(page []byte) {
	for i := range page {
		page[i] = 0
	}
	if nd.leaf {
		page[0] = 1
	}
	binary.LittleEndian.PutUint16(page[1:], uint16(len(nd.keys)))
	if nd.leaf {
		binary.LittleEndian.PutUint32(page[3:], uint32(nd.next))
	} else {
		binary.LittleEndian.PutUint32(page[3:], uint32(nd.children[0]))
	}
	off := 7
	for i, k := range nd.keys {
		off += binary.PutUvarint(page[off:], uint64(len(k)))
		off += copy(page[off:], k)
		if nd.leaf {
			off += binary.PutUvarint(page[off:], uint64(len(nd.vals[i])))
			off += copy(page[off:], nd.vals[i])
		} else {
			binary.LittleEndian.PutUint32(page[off:], uint32(nd.children[i+1]))
			off += 4
		}
	}
}

func decodeNode(page []byte) (*node, error) {
	nd := &node{leaf: page[0] == 1}
	n := int(binary.LittleEndian.Uint16(page[1:]))
	first := pager.PageID(binary.LittleEndian.Uint32(page[3:]))
	if nd.leaf {
		nd.next = first
	} else {
		nd.children = append(nd.children, first)
	}
	off := 7
	for i := 0; i < n; i++ {
		klen, m := binary.Uvarint(page[off:])
		if m <= 0 {
			return nil, fmt.Errorf("btree: corrupt page (key %d)", i)
		}
		off += m
		key := make([]byte, klen)
		copy(key, page[off:off+int(klen)])
		off += int(klen)
		nd.keys = append(nd.keys, key)
		if nd.leaf {
			vlen, m := binary.Uvarint(page[off:])
			if m <= 0 {
				return nil, fmt.Errorf("btree: corrupt page (val %d)", i)
			}
			off += m
			val := make([]byte, vlen)
			copy(val, page[off:off+int(vlen)])
			off += int(vlen)
			nd.vals = append(nd.vals, val)
		} else {
			nd.children = append(nd.children, pager.PageID(binary.LittleEndian.Uint32(page[off:])))
			off += 4
		}
	}
	return nd, nil
}

func (t *refTree) load(id pager.PageID) (*node, error) {
	return t.loadMetered(id, nil)
}

// loadMetered reads a node through the pool, charging a miss's disk
// read to the per-query meter (nil = uncharged).
func (t *refTree) loadMetered(id pager.PageID, m *pager.Meter) (*node, error) {
	f, err := t.pool.GetMetered(id, m)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(f)
	return decodeNode(f.Data)
}

func (t *refTree) store(id pager.PageID, nd *node) error {
	f, err := t.pool.Get(id)
	if err != nil {
		return err
	}
	nd.encode(f.Data)
	f.SetDirty()
	t.pool.Unpin(f)
	return nil
}

func (t *refTree) alloc(nd *node) (pager.PageID, error) {
	f, err := t.pool.Alloc()
	if err != nil {
		return 0, err
	}
	nd.encode(f.Data)
	f.SetDirty()
	id := f.ID
	t.pool.Unpin(f)
	return id, nil
}

// splitPoint returns the key index at which to split an overflowing
// node so both halves' encoded sizes are near-balanced.
func (nd *node) splitPoint() int {
	itemSize := func(i int) int {
		sz := uvarintLen(uint64(len(nd.keys[i]))) + len(nd.keys[i])
		if nd.leaf {
			return sz + uvarintLen(uint64(len(nd.vals[i]))) + len(nd.vals[i])
		}
		return sz + 4
	}
	total := 0
	for i := range nd.keys {
		total += itemSize(i)
	}
	acc := 0
	for i := range nd.keys {
		acc += itemSize(i)
		if acc >= total/2 {
			if i+1 >= len(nd.keys) {
				return len(nd.keys) - 1
			}
			return i + 1
		}
	}
	return len(nd.keys) / 2
}

// childIndex returns the index of the child subtree that may contain key:
// the last separator <= key, plus one.
func (nd *node) childIndex(key []byte) int {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(nd.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns (position, found) of key within a leaf.
func (nd *node) leafIndex(key []byte) (int, bool) {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(nd.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nd.keys) && bytes.Equal(nd.keys[lo], key)
}

// Get returns the value stored under key.
func (t *refTree) Get(key []byte) ([]byte, error) {
	return t.GetMetered(key, nil)
}

// GetMetered is Get with per-query I/O attribution: pool misses along
// the root-to-leaf path are charged to m. Safe for concurrent readers
// (the pool serializes its own bookkeeping; the meter is atomic).
func (t *refTree) GetMetered(key []byte, m *pager.Meter) ([]byte, error) {
	id := t.root
	for {
		nd, err := t.loadMetered(id, m)
		if err != nil {
			return nil, err
		}
		if nd.leaf {
			i, ok := nd.leafIndex(key)
			if !ok {
				return nil, ErrNotFound
			}
			return nd.vals[i], nil
		}
		id = nd.children[nd.childIndex(key)]
	}
}

// MaxItem returns the largest key+value size the tree accepts for its
// page size. The bound guarantees a byte-balanced split always fits:
// after an overflow the node holds at most pageSize + MaxItem payload
// bytes; the left half exceeds half the total by at most one item, so
// it stays within pageSize/2 + 1.5*MaxItem + header <= pageSize when
// MaxItem <= pageSize/3 - 8.
func (t *refTree) MaxItem() int { return t.pool.Disk().PageSize()/3 - 8 }

// Insert stores (key, value), replacing any existing value for key.
func (t *refTree) Insert(key, value []byte) error {
	maxItem := t.MaxItem()
	if len(key)+len(value) > maxItem {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	sep, right, replaced, err := t.insert(t.root, key, value)
	if err != nil {
		return err
	}
	if !replaced {
		t.n++
	}
	if right != 0 {
		// Root split: new interior root.
		newRoot := &node{children: []pager.PageID{t.root, right}, keys: [][]byte{sep}}
		id, err := t.alloc(newRoot)
		if err != nil {
			return err
		}
		t.root = id
	}
	return nil
}

// insert descends into page id. On split it returns the separator key
// and the new right sibling's page id.
func (t *refTree) insert(id pager.PageID, key, value []byte) (sep []byte, right pager.PageID, replaced bool, err error) {
	nd, err := t.load(id)
	if err != nil {
		return nil, 0, false, err
	}
	if nd.leaf {
		i, found := nd.leafIndex(key)
		if found {
			nd.vals[i] = value
			replaced = true
		} else {
			nd.keys = append(nd.keys, nil)
			copy(nd.keys[i+1:], nd.keys[i:])
			nd.keys[i] = append([]byte(nil), key...)
			nd.vals = append(nd.vals, nil)
			copy(nd.vals[i+1:], nd.vals[i:])
			nd.vals[i] = append([]byte(nil), value...)
		}
	} else {
		ci := nd.childIndex(key)
		csep, cright, crep, cerr := t.insert(nd.children[ci], key, value)
		if cerr != nil {
			return nil, 0, false, cerr
		}
		replaced = crep
		if cright != 0 {
			nd.keys = append(nd.keys, nil)
			copy(nd.keys[ci+1:], nd.keys[ci:])
			nd.keys[ci] = csep
			nd.children = append(nd.children, 0)
			copy(nd.children[ci+2:], nd.children[ci+1:])
			nd.children[ci+1] = cright
		}
	}
	if nd.encodedSize() <= t.pool.Disk().PageSize() {
		return nil, 0, replaced, t.store(id, nd)
	}
	// Split: move the upper half to a new right sibling. The split point
	// balances bytes, not key counts — with variable-length keys a count
	// split can leave one half still oversized.
	mid := nd.splitPoint()
	var rightNode *node
	if nd.leaf {
		rightNode = &node{
			leaf: true,
			keys: append([][]byte(nil), nd.keys[mid:]...),
			vals: append([][]byte(nil), nd.vals[mid:]...),
			next: nd.next,
		}
		sep = append([]byte(nil), nd.keys[mid]...)
		nd.keys = nd.keys[:mid]
		nd.vals = nd.vals[:mid]
	} else {
		// The separator at mid moves up; children split around it.
		sep = append([]byte(nil), nd.keys[mid]...)
		rightNode = &node{
			keys:     append([][]byte(nil), nd.keys[mid+1:]...),
			children: append([]pager.PageID(nil), nd.children[mid+1:]...),
		}
		nd.keys = nd.keys[:mid]
		nd.children = nd.children[:mid+1]
	}
	rid, err := t.alloc(rightNode)
	if err != nil {
		return nil, 0, false, err
	}
	if nd.leaf {
		nd.next = rid
	}
	if err := t.store(id, nd); err != nil {
		return nil, 0, false, err
	}
	return sep, rid, replaced, nil
}

// Delete removes key. Pages are not rebalanced or reclaimed (lazy
// deletion); the directory workload is read-mostly.
func (t *refTree) Delete(key []byte) error {
	id := t.root
	for {
		nd, err := t.load(id)
		if err != nil {
			return err
		}
		if nd.leaf {
			i, ok := nd.leafIndex(key)
			if !ok {
				return ErrNotFound
			}
			nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
			nd.vals = append(nd.vals[:i], nd.vals[i+1:]...)
			t.n--
			return t.store(id, nd)
		}
		id = nd.children[nd.childIndex(key)]
	}
}

// Scan calls fn for each (key, value) with lo <= key < hi in key order,
// stopping if fn returns false. A nil hi means "to the end".
func (t *refTree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.ScanMetered(lo, hi, nil, fn)
}

// ScanMetered is Scan with per-query I/O attribution (see GetMetered).
func (t *refTree) ScanMetered(lo, hi []byte, m *pager.Meter, fn func(key, value []byte) bool) error {
	id := t.root
	for {
		nd, err := t.loadMetered(id, m)
		if err != nil {
			return err
		}
		if nd.leaf {
			i, _ := nd.leafIndex(lo)
			for {
				for ; i < len(nd.keys); i++ {
					if hi != nil && bytes.Compare(nd.keys[i], hi) >= 0 {
						return nil
					}
					if !fn(nd.keys[i], nd.vals[i]) {
						return nil
					}
				}
				if nd.next == 0 {
					return nil
				}
				nd, err = t.loadMetered(nd.next, m)
				if err != nil {
					return err
				}
				i = 0
			}
		}
		id = nd.children[nd.childIndex(lo)]
	}
}
