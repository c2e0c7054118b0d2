package mem

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// This file is the content-store differential test: a naive reference model
// that stores one materialized byte array per live frame (exactly the old
// PhysMem representation) runs the same random operation stream as the real
// pool, and every observable — Bytes, Equal, Compare, Checksum, IsZero —
// must agree at every step. Snapshot/Restore/Release handles ride along so
// the swap-store aliasing path is exercised too, and a blob census checks
// that every literal blob's refcount equals the number of frame descriptors
// and live handles pointing at it.

type diffSnap struct {
	c    PageContent
	data []byte // reference copy of the snapshotted content
}

type diffModel struct {
	pm    *PhysMem
	pages map[FrameID][]byte // reference content per live frame
	refs  map[FrameID]int
	snaps []diffSnap
}

func newDiffModel(frames int) *diffModel {
	return &diffModel{
		pm:    NewPhysMem(int64(frames)*DefaultPageSize, DefaultPageSize),
		pages: make(map[FrameID][]byte),
		refs:  make(map[FrameID]int),
	}
}

func (m *diffModel) pick(r *rand.Rand) (FrameID, bool) {
	if len(m.pages) == 0 {
		return 0, false
	}
	// Sort before choosing so the stream is independent of map iteration
	// order and a failing (seed, steps) pair replays exactly.
	ids := make([]FrameID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[r.Intn(len(ids))], true
}

// step applies one random operation to both the pool and the model.
func (m *diffModel) step(r *rand.Rand) {
	switch r.Intn(10) {
	case 0, 1: // alloc
		id, err := m.pm.Alloc()
		if err != nil {
			return
		}
		m.pages[id] = make([]byte, DefaultPageSize)
		m.refs[id] = 1
	case 2: // incref / decref
		id, ok := m.pick(r)
		if !ok {
			return
		}
		if r.Intn(2) == 0 {
			m.pm.IncRef(id)
			m.refs[id]++
		} else {
			m.pm.DecRef(id)
			if m.refs[id]--; m.refs[id] == 0 {
				delete(m.refs, id)
				delete(m.pages, id)
			}
		}
	case 3, 4: // write: random span, sometimes all-zero bytes
		id, ok := m.pick(r)
		if !ok {
			return
		}
		n := r.Intn(64) + 1
		off := r.Intn(DefaultPageSize - n)
		data := make([]byte, n)
		if r.Intn(4) != 0 {
			r.Read(data)
		}
		m.pm.Write(id, off, data)
		copy(m.pages[id][off:], data)
	case 5: // fill from a small seed pool, forcing cross-frame sharing
		id, ok := m.pick(r)
		if !ok {
			return
		}
		seed := Seed(r.Intn(4) + 1)
		m.pm.FillFrame(id, seed)
		Fill(m.pages[id], seed)
	case 6: // zero
		id, ok := m.pick(r)
		if !ok {
			return
		}
		m.pm.ZeroFrame(id)
		for i := range m.pages[id] {
			m.pages[id][i] = 0
		}
	case 7: // copy one live frame onto another
		src, ok := m.pick(r)
		if !ok {
			return
		}
		dst, _ := m.pick(r)
		m.pm.CopyFrame(dst, src)
		copy(m.pages[dst], m.pages[src])
	case 8: // snapshot a frame's content into a detached handle
		id, ok := m.pick(r)
		if !ok {
			return
		}
		data := make([]byte, DefaultPageSize)
		copy(data, m.pages[id])
		m.snaps = append(m.snaps, diffSnap{c: m.pm.Snapshot(id), data: data})
	case 9: // consume a handle: restore into a live frame, or release
		if len(m.snaps) == 0 {
			return
		}
		i := r.Intn(len(m.snaps))
		s := m.snaps[i]
		m.snaps = append(m.snaps[:i], m.snaps[i+1:]...)
		if id, ok := m.pick(r); ok && r.Intn(2) == 0 {
			m.pm.Restore(id, s.c)
			copy(m.pages[id], s.data)
		} else {
			m.pm.Release(s.c)
		}
	}
}

// verify checks every observable of every live frame against the model, and
// pairwise Equal/Compare over a handful of frames.
func (m *diffModel) verify(t *testing.T) {
	t.Helper()
	pm := m.pm
	ids := make([]FrameID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	for _, id := range ids {
		want := m.pages[id]
		if !bytes.Equal(pm.Bytes(id), want) {
			t.Fatalf("frame %d: Bytes diverged from model", id)
		}
		if got, wantSum := pm.Checksum(id), ChecksumBytes(want); got != wantSum {
			t.Fatalf("frame %d: Checksum %#x, model %#x", id, got, wantSum)
		}
		wantZero := true
		for _, b := range want {
			if b != 0 {
				wantZero = false
				break
			}
		}
		if pm.IsZero(id) != wantZero {
			t.Fatalf("frame %d: IsZero %v, model %v", id, pm.IsZero(id), wantZero)
		}
	}
	for i, a := range ids {
		for _, b := range ids[i:] {
			wantEq := bytes.Equal(m.pages[a], m.pages[b])
			if pm.Equal(a, b) != wantEq {
				t.Fatalf("Equal(%d,%d)=%v, model %v", a, b, pm.Equal(a, b), wantEq)
			}
			if got, want := pm.Compare(a, b), bytes.Compare(m.pages[a], m.pages[b]); got != want {
				t.Fatalf("Compare(%d,%d)=%d, model %d", a, b, got, want)
			}
		}
	}
	m.checkBlobs(t)
}

// checkBlobs censuses every literal blob reachable from frame descriptors
// and live handles and compares refcounts and store gauges.
func (m *diffModel) checkBlobs(t *testing.T) {
	t.Helper()
	want := make(map[*blob]int32)
	for i := range m.pm.frames {
		f := &m.pm.frames[i]
		if f.refcnt > 0 && f.desc.kind == descLiteral {
			want[f.desc.blob]++
		}
	}
	for _, s := range m.snaps {
		if s.c.d.kind == descLiteral {
			want[s.c.d.blob]++
		}
	}
	interned := 0
	for b, n := range want {
		if b.refs != n {
			t.Fatalf("blob %p: refs %d, census %d", b, b.refs, n)
		}
		if b.interned {
			interned++
		}
	}
	cs := m.pm.cs
	if cs.blobs != len(want) || cs.internedBlobs != interned {
		t.Fatalf("store gauges blobs=%d interned=%d, census blobs=%d interned=%d",
			cs.blobs, cs.internedBlobs, len(want), interned)
	}
	tabled := 0
	for _, bucket := range cs.table {
		tabled += len(bucket)
	}
	if tabled != interned {
		t.Fatalf("content table holds %d blobs, census %d interned", tabled, interned)
	}
}

// drain releases every reference and handle; the pool must come back to
// fresh with an empty content store.
func (m *diffModel) drain(t *testing.T) {
	t.Helper()
	for _, s := range m.snaps {
		m.pm.Release(s.c)
	}
	m.snaps = nil
	for id, n := range m.refs {
		for i := 0; i < n; i++ {
			m.pm.DecRef(id)
		}
	}
	m.refs = make(map[FrameID]int)
	m.pages = make(map[FrameID][]byte)
	if m.pm.FramesInUse() != 0 {
		t.Fatalf("drained pool still holds %d frames", m.pm.FramesInUse())
	}
	cs := m.pm.cs
	if cs.blobs != 0 || cs.internedBlobs != 0 || cs.blobBytes != 0 || len(cs.table) != 0 {
		t.Fatalf("drained store not empty: blobs=%d interned=%d bytes=%d table=%d",
			cs.blobs, cs.internedBlobs, cs.blobBytes, len(cs.table))
	}
}

// TestContentStoreDifferential is the satellite property test: long random
// operation sequences, model-checked throughout.
func TestContentStoreDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := newDiffModel(64)
		for step := 0; step < 3000; step++ {
			m.step(r)
			if step%200 == 0 {
				m.verify(t)
			}
		}
		m.verify(t)
		m.drain(t)
	}
}

// FuzzContentStoreDifferential replays fuzzer-chosen operation streams
// through the same model; `go test` runs the seed corpus, `go test -fuzz`
// explores further.
func FuzzContentStoreDifferential(f *testing.F) {
	f.Add(int64(42), 500)
	f.Add(int64(7), 2000)
	f.Fuzz(func(t *testing.T, seed int64, steps int) {
		if steps < 0 || steps > 4000 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		m := newDiffModel(32)
		for i := 0; i < steps; i++ {
			m.step(r)
			if i%500 == 0 {
				m.verify(t)
			}
		}
		m.verify(t)
		m.drain(t)
	})
}

// TestChecksumSeedMatchesMaterialized pins the streamed seeded checksum to
// the byte-materialized reference for a spread of seeds and sizes.
func TestChecksumSeedMatchesMaterialized(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 24, 4095, 4096, 4100, 16384} {
		for s := uint64(0); s < 64; s++ {
			seed := Mix(Seed(s * 0x9e37))
			if got, want := ChecksumSeed(seed, n), ChecksumBytes(FillBytes(n, seed)); got != want {
				t.Fatalf("seed %#x n=%d: ChecksumSeed %#x, materialized %#x", uint64(seed), n, got, want)
			}
		}
	}
}
