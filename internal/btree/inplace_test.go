package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pager"
)

// randKey draws a key over a small alphabet with long shared prefixes,
// the shape of reverse-DN and composite index keys.
func randKey(r *rand.Rand, maxLen int) []byte {
	prefixes := []string{"", "com.att.", "com.att.research.", "com.att.research.people.uid="}
	k := []byte(prefixes[r.Intn(len(prefixes))])
	for n := r.Intn(12); n > 0; n-- {
		k = append(k, "abcdefgh\x00\xff"[r.Intn(10)])
	}
	if r.Intn(20) == 0 { // an occasional long key
		for n := r.Intn(maxLen); n > 0; n-- {
			k = append(k, byte('a'+r.Intn(3)))
		}
	}
	if len(k) > maxLen {
		k = k[:maxLen]
	}
	return k
}

func randValue(r *rand.Rand, limit int) []byte {
	n := r.Intn(9)
	if r.Intn(8) == 0 { // an occasional value up to the item limit
		n = r.Intn(limit + 1)
	}
	n = min(n, limit)
	v := make([]byte, n)
	r.Read(v)
	return v
}

// samePages fails unless both disks hold identical page images and
// counted identical I/O.
func samePages(t *testing.T, step int, got, want *pager.Disk) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("step %d: disk I/O %v, reference %v", step, g, w)
	}
	if g, w := got.NumPages(), want.NumPages(); g != w {
		t.Fatalf("step %d: %d pages, reference %d", step, g, w)
	}
	gb := make([]byte, got.PageSize())
	wb := make([]byte, want.PageSize())
	for id := pager.PageID(1); int(id) <= got.NumPages(); id++ {
		if err := got.Read(id, gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Read(id, wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("step %d: page %d differs from the reference\n got %x\nwant %x", step, id, gb, wb)
		}
	}
}

func scanAll(t *testing.T, scan func(lo, hi []byte, fn func(k, v []byte) bool) error, lo, hi []byte) []string {
	t.Helper()
	var out []string
	if err := scan(lo, hi, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestByteIdentityWithReference drives one seeded random history of
// inserts, replacements and deletes — keys and values up to MaxItem,
// enough to split nodes at every level — through the in-place tree and
// the decode-based reference tree. After every flush both disks must
// hold identical page images and have counted identical page I/O, and
// Len, Get and Scan must agree.
func TestByteIdentityWithReference(t *testing.T) {
	for _, cfg := range []struct{ pageSize, pool, ops int }{
		{128, 8, 3000},
		{256, 8, 6000},
		{512, 16, 6000},
		{4096, 64, 10000},
	} {
		t.Run(fmt.Sprintf("page%d_pool%d", cfg.pageSize, cfg.pool), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(cfg.pageSize)))
			gd, wd := pager.NewDisk(cfg.pageSize), pager.NewDisk(cfg.pageSize)
			got, err := New(gd, cfg.pool)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newRefTree(wd, cfg.pool)
			if err != nil {
				t.Fatal(err)
			}
			maxItem := got.MaxItem()
			var keys [][]byte
			for i := 0; i < cfg.ops; i++ {
				switch op := r.Intn(10); {
				case op < 6 || len(keys) == 0: // insert, mostly new keys
					k := randKey(r, maxItem)
					if op == 0 && len(keys) > 0 {
						k = keys[r.Intn(len(keys))]
					}
					v := randValue(r, maxItem-len(k))
					gerr, werr := got.Insert(k, v), want.Insert(k, v)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("op %d: Insert %v, reference %v", i, gerr, werr)
					}
					keys = append(keys, k)
				case op < 8: // delete, sometimes a missing key
					k := keys[r.Intn(len(keys))]
					gerr, werr := got.Delete(k), want.Delete(k)
					if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, ErrNotFound)) {
						t.Fatalf("op %d: Delete %v, reference %v", i, gerr, werr)
					}
				default: // point read
					k := keys[r.Intn(len(keys))]
					gv, gerr := got.Get(k)
					wv, werr := want.Get(k)
					if !bytes.Equal(gv, wv) || (gerr == nil) != (werr == nil) {
						t.Fatalf("op %d: Get(%q) = %q, %v; reference %q, %v", i, k, gv, gerr, wv, werr)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("op %d: Len %d, reference %d", i, got.Len(), want.Len())
				}
				if i%(cfg.ops/10) == 0 || i == cfg.ops-1 {
					if err := got.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := want.Flush(); err != nil {
						t.Fatal(err)
					}
					samePages(t, i, gd, wd)
				}
			}
			if got.Root() != want.root {
				t.Fatalf("root %d, reference %d", got.Root(), want.root)
			}
			full := scanAll(t, got.Scan, nil, nil)
			if ref := scanAll(t, want.Scan, nil, nil); fmt.Sprint(full) != fmt.Sprint(ref) {
				t.Fatalf("full scans differ: %d vs %d items", len(full), len(ref))
			}
			if len(full) != got.Len() {
				t.Fatalf("full scan: %d items for Len %d", len(full), got.Len())
			}
			var prev []byte
			if err := got.Scan(nil, nil, func(k, v []byte) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order: %q after %q", k, prev)
				}
				prev = append(prev[:0:0], k...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				lo, hi := randKey(r, 40), randKey(r, 40)
				if bytes.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				g, w := scanAll(t, got.Scan, lo, hi), scanAll(t, want.Scan, lo, hi)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("Scan[%q, %q): %d items, reference %d", lo, hi, len(g), len(w))
				}
			}
		})
	}
}

// TestBulkOrderIdentity is the store build's shape: ascending keys, one
// insert each, on the directory's 4 KiB pages.
func TestBulkOrderIdentity(t *testing.T) {
	gd, wd := pager.NewDisk(4096), pager.NewDisk(4096)
	got, err := New(gd, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefTree(wd, 64)
	if err != nil {
		t.Fatal(err)
	}
	var off [8]byte
	for i := 0; i < 12000; i++ {
		k := []byte(fmt.Sprintf("com.att.research.people.uid=%07d", i))
		binary.LittleEndian.PutUint64(off[:], uint64(i*97))
		if err := got.Insert(k, off[:]); err != nil {
			t.Fatal(err)
		}
		if err := want.Insert(k, off[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := want.Flush(); err != nil {
		t.Fatal(err)
	}
	samePages(t, 12000, gd, wd)
}

// warmTree returns a tree whose pool holds every page, so reads and
// writes below touch no disk.
func warmTree(t *testing.T, n int) *Tree {
	t.Helper()
	tr, err := New(pager.NewDisk(4096), 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%06d", i)), []byte("vvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAllocsPerOp(t *testing.T) {
	tr := warmTree(t, 5000)
	key := []byte("key002500")
	if a := testing.AllocsPerRun(200, func() {
		if _, err := tr.Get(key); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Get allocates %.1f times, want <= 1 (the copied value)", a)
	}
	lo, hi := []byte("key001000"), []byte("key003000")
	count := 0
	scan := func(k, v []byte) bool { count++; return true }
	if a := testing.AllocsPerRun(50, func() {
		if err := tr.Scan(lo, hi, scan); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Scan allocates %.1f times, want 0", a)
	}
	if count == 0 {
		t.Fatal("scan visited nothing")
	}
	val := []byte("wwwwwwww")
	if a := testing.AllocsPerRun(200, func() {
		if err := tr.Insert(key, val); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("replacing Insert allocates %.1f times, want 0", a)
	}
	extra := []byte("key002500x")
	if a := testing.AllocsPerRun(200, func() {
		if err := tr.Insert(extra, val); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(extra); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("non-splitting Insert + Delete allocates %.1f times, want 0", a)
	}
}

// corruptTree puts hostile bytes on the root page of a fresh tree.
func corruptTree(t *testing.T, page []byte) *Tree {
	t.Helper()
	d := pager.NewDisk(128)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, page); err != nil {
		t.Fatal(err)
	}
	return Open(d, 8, id, 1)
}

func TestCorruptPagesReportErrCorrupt(t *testing.T) {
	leaf := func(items ...byte) []byte {
		return append([]byte{1, 1, 0, 0, 0, 0, 0}, items...)
	}
	cases := map[string][]byte{
		"key runs past page":    leaf(200, 'a'),
		"value runs past page":  leaf(1, 'a', 127),
		"huge varint length":    leaf(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"count beyond items":    {1, 0xff, 0xff, 0, 0, 0, 0},
		"self-referencing root": {0, 0, 0, 1, 0, 0, 0},
	}
	// An interior item whose key ends two bytes short of the page end,
	// leaving no room for its child id.
	ic := make([]byte, 128)
	copy(ic, []byte{0, 1, 0, 1, 0, 0, 0, 119})
	cases["interior child cut"] = ic
	for name, page := range cases {
		t.Run(name, func(t *testing.T) {
			tr := corruptTree(t, page)
			if _, err := tr.Get([]byte("a")); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get: %v, want ErrCorrupt", err)
			}
			if err := tr.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Scan: %v, want ErrCorrupt", err)
			}
			if err := tr.Insert([]byte("b"), []byte("v")); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Insert: %v, want ErrCorrupt", err)
			}
			if err := tr.Delete([]byte("a")); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Delete: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestLeafChainCycleReportsErrCorrupt(t *testing.T) {
	// One leaf whose next-leaf link points at itself.
	tr := corruptTree(t, []byte{1, 1, 0, 1, 0, 0, 0, 1, 'a', 1, 'v'})
	n := 0
	err := tr.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over a cyclic leaf chain: %v after %d items, want ErrCorrupt", err, n)
	}
}

// FuzzPage puts hostile bytes on a tree's pages: Get, Scan, Insert and
// Delete may fail, but must never panic or loop forever.
func FuzzPage(f *testing.F) {
	const pageSize = 128
	// Seed with the pages of a real two-level tree.
	d := pager.NewDisk(pageSize)
	seed, err := New(d, 8)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := seed.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := seed.Flush(); err != nil {
		f.Fatal(err)
	}
	var img []byte
	page := make([]byte, pageSize)
	for id := pager.PageID(1); int(id) <= d.NumPages() && id <= 4; id++ {
		if err := d.Read(id, page); err != nil {
			f.Fatal(err)
		}
		img = append(img, page...)
	}
	f.Add(img, uint8(seed.Root()))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0, 1, 'a', 1, 0, 0, 0}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, root uint8) {
		d := pager.NewDisk(pageSize)
		for len(data) > 0 && d.NumPages() < 8 {
			id, err := d.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			n := min(len(data), pageSize)
			if err := d.Write(id, data[:n]); err != nil {
				t.Fatal(err)
			}
			data = data[n:]
		}
		if d.NumPages() == 0 {
			return
		}
		tr := Open(d, 8, pager.PageID(int(root)%d.NumPages()+1), 0)
		for _, k := range []string{"", "a", "k010", "k039", "zzz"} {
			_, _ = tr.Get([]byte(k))
		}
		n := 0
		_ = tr.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 10000 })
		for i, k := range []string{"k005", "b", "k0200000000000000000000", ""} {
			_ = tr.Insert([]byte(k), bytes.Repeat([]byte{'v'}, i*7))
		}
		_ = tr.Delete([]byte("k005"))
		_ = tr.Scan([]byte("b"), []byte("m"), func(k, v []byte) bool { n++; return n < 20000 })
	})
}

// TestConcurrentReadersOnRecycledFrames runs parallel Get and Scan on
// one tree whose pool is far smaller than the tree, so frames are
// evicted and their memory reused for other pages while scans hold
// their leaves pinned. Run under -race.
func TestConcurrentReadersOnRecycledFrames(t *testing.T) {
	d := pager.NewDisk(256)
	tr, err := New(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 300; it++ {
				i := r.Intn(n)
				if w%2 == 0 {
					v, err := tr.Get([]byte(fmt.Sprintf("k%06d", i)))
					if err != nil || string(v) != fmt.Sprint(i) {
						t.Errorf("Get(k%06d) = %q, %v", i, v, err)
						return
					}
					continue
				}
				want := i
				err := tr.Scan([]byte(fmt.Sprintf("k%06d", i)), nil, func(k, v []byte) bool {
					if string(k) != fmt.Sprintf("k%06d", want) || string(v) != fmt.Sprint(want) {
						t.Errorf("Scan from k%06d: got %s=%s at position %d", i, k, v, want)
						return false
					}
					want++
					return want < i+60
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
