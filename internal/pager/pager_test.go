package pager

import (
	"bytes"
	"errors"
	"testing"
)

func TestDiskAllocReadWrite(t *testing.T) {
	d := NewDisk(128)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("page id 0 must never be allocated")
	}
	data := []byte("hello, directory")
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:len(data)]) != string(data) {
		t.Fatalf("read back %q", buf[:len(data)])
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDisk(64)
	buf := make([]byte, 64)
	if err := d.Read(0, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("read page 0: %v", err)
	}
	if err := d.Read(99, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("read unallocated: %v", err)
	}
	id, _ := d.Alloc()
	if err := d.Write(id, make([]byte, 65)); !errors.Is(err, ErrPageSize) {
		t.Errorf("oversized write: %v", err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(PageID(50)); !errors.Is(err, ErrBadPage) {
		t.Errorf("free bad page: %v", err)
	}
}

func TestDiskFreeReuse(t *testing.T) {
	d := NewDisk(64)
	a, _ := d.Alloc()
	if err := d.Write(a, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := d.Alloc()
	if a != b {
		t.Fatalf("freed page not reused: %d vs %d", a, b)
	}
	buf := make([]byte, 64)
	if err := d.Read(b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("reused page must read as zeroes")
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

func TestDiskWriteClearsStale(t *testing.T) {
	d := NewDisk(64)
	id, _ := d.Alloc()
	if err := d.Write(id, []byte("aaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("b")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'b' || buf[1] != 0 {
		t.Fatalf("stale bytes survived rewrite: %q", buf[:8])
	}
}

func TestDiskFaultInjection(t *testing.T) {
	d := NewDisk(64)
	id, _ := d.Alloc()
	boom := errors.New("boom")
	d.SetFault(func(op string, _ PageID) error {
		if op == "write" {
			return boom
		}
		return nil
	})
	if err := d.Write(id, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	d.SetFault(nil)
	if err := d.Write(id, []byte("x")); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDisk(64)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, _ := d.Alloc()
		if err := d.Write(id, []byte{byte(i + 1), byte(i + 2)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A freed page and a never-written page must survive the round trip.
	if err := d.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	unwritten, _ := d.Alloc() // reuses the freed slot, stays zeroed
	_ = unwritten

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.PageSize() != 64 || back.NumPages() != d.NumPages() {
		t.Fatalf("geometry lost: %d pages, size %d", back.NumPages(), back.PageSize())
	}
	pbuf := make([]byte, 64)
	for i, id := range ids {
		if i == 2 {
			continue
		}
		if err := back.Read(id, pbuf); err != nil {
			t.Fatal(err)
		}
		if pbuf[0] != byte(i+1) || pbuf[1] != byte(i+2) {
			t.Fatalf("page %d content lost", id)
		}
	}
	// Allocation continues correctly after restore.
	if _, err := back.Alloc(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDiskRejectsGarbage(t *testing.T) {
	if _, err := ReadDisk(bytes.NewReader([]byte("bogus"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadDisk(bytes.NewReader([]byte("DIRKITD1trunc"))); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Writes: 3, Allocs: 2, Frees: 1}
	b := Stats{Reads: 1, Writes: 1, Allocs: 1, Frees: 1}
	if got := a.Sub(b); got.Reads != 4 || got.Writes != 2 {
		t.Fatalf("Sub = %+v", got)
	}
	if got := a.Add(b); got.Reads != 6 || got.IO() != 10 {
		t.Fatalf("Add = %+v IO=%d", got, got.IO())
	}
}

func TestPoolHitsAndEviction(t *testing.T) {
	d := NewDisk(64)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := d.Alloc()
		if err := d.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d.ResetStats()

	p := NewPool(d, 2)
	f, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	// Hit: no extra read.
	f, err = p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	if st := d.Stats(); st.Reads != 1 {
		t.Fatalf("expected 1 read after hit, got %+v", st)
	}
	// Fill beyond capacity: evictions occur, unpinned pages drop.
	for _, id := range ids[1:] {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	if p.Len() > 2 {
		t.Fatalf("pool over capacity: %d", p.Len())
	}
}

func TestPoolDirtyWriteback(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, 1)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	f.Data[0] = 42
	f.SetDirty()
	p.Unpin(f)
	// Force eviction by pulling in another page.
	g, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(g)
	buf := make([]byte, 64)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestPoolAllPinned(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, 1)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(f)
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("expected ErrPoolFull, got %v", err)
	}
}

func TestPoolFlush(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, 4)
	f, _ := p.Alloc()
	f.Data[0] = 7
	f.SetDirty()
	p.Unpin(f)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.Read(f.ID, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("flush did not persist dirty frame")
	}
}

// TestPoolRecyclesFrames: a full pool reuses its evicted frame for the
// next miss — no fresh buffer — and the reused memory never leaks the
// old page's bytes: a miss reads the new page whole and Alloc zeroes.
func TestPoolRecyclesFrames(t *testing.T) {
	d := NewDisk(64)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := d.Alloc()
		if err := d.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	short, _ := d.Alloc()
	if err := d.Write(short, []byte{9}); err != nil { // the rest reads as zeroes
		t.Fatal(err)
	}
	p := NewPool(d, 1)
	f, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	first := f
	for _, id := range append(ids[1:], short) {
		g, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if g != first {
			t.Fatal("miss on a full pool did not reuse the evicted frame")
		}
		want := make([]byte, 64)
		if err := d.Read(id, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Data, want) {
			t.Fatalf("page %d read through a recycled frame = %v, want %v", id, g.Data, want)
		}
		p.Unpin(g)
	}
	a, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, make([]byte, 64)) {
		t.Fatalf("Alloc through a recycled frame = %v, want zeroes", a.Data)
	}
	p.Unpin(a)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			g, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(g)
		}
	}); allocs != 0 {
		t.Errorf("pool misses allocate %.1f times, want 0", allocs)
	}
}
