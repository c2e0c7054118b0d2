package guestos

import (
	"testing"
	"testing/quick"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const pg = mem.DefaultPageSize

func bootVM(t *testing.T, guestPages int, cfg KernelConfig) *Kernel {
	if t != nil {
		t.Helper()
	}
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: int64(guestPages*4) * pg}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm1", GuestMemBytes: int64(guestPages) * pg, Seed: 11})
	return Boot(vm, cfg)
}

func TestBootKernelMemory(t *testing.T) {
	k := bootVM(t, 256, KernelConfig{Version: "2.6.18", TextBytes: 8 * pg, DataBytes: 4 * pg, SlabBytes: 2 * pg})
	c := k.CountKernelPages()
	if c.Text != 8 || c.Data != 4 || c.Slab != 2 {
		t.Fatalf("kernel pages = %+v", c)
	}
	if got := k.UsedGuestPages(); got != 14 {
		t.Fatalf("used guest pages = %d, want 14", got)
	}
}

func TestKernelTextIdenticalAcrossVMs(t *testing.T) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 1024 * pg}, clock)
	cfg := KernelConfig{Version: "2.6.18", TextBytes: 4 * pg, DataBytes: 4 * pg}
	vm1 := host.NewVM(hypervisor.VMConfig{Name: "vm1", GuestMemBytes: 128 * pg, Seed: 1})
	vm2 := host.NewVM(hypervisor.VMConfig{Name: "vm2", GuestMemBytes: 128 * pg, Seed: 2})
	Boot(vm1, cfg)
	Boot(vm2, cfg)
	// Kernel text occupies the same low gpfns in both VMs with identical
	// content; kernel data must differ.
	for gpfn := uint64(0); gpfn < 4; gpfn++ {
		b1 := vm1.ReadGuestPage(gpfn)
		b2 := vm2.ReadGuestPage(gpfn)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("kernel text page %d differs across VMs", gpfn)
			}
		}
	}
	d1 := vm1.ReadGuestPage(5)
	d2 := vm2.ReadGuestPage(5)
	same := true
	for i := range d1 {
		if d1[i] != d2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("kernel data identical across VMs; boot seed unused")
	}
}

func TestSpawnPIDsMonotonicAndJittered(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v", TextBytes: pg})
	p1 := k.Spawn("init", false)
	p2 := k.Spawn("sshd", false)
	p3 := k.Spawn("java", true)
	if !(p1.PID < p2.PID && p2.PID < p3.PID) {
		t.Fatalf("PIDs not monotonic: %d %d %d", p1.PID, p2.PID, p3.PID)
	}
	if len(k.Processes()) != 3 {
		t.Fatalf("process count = %d", len(k.Processes()))
	}
}

func TestAnonMappingDemandZero(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	p := k.Spawn("app", false)
	v := p.MapAnon(8, "heap", "test-heap")
	if p.ResidentPages() != 0 {
		t.Fatal("anon VMA eagerly populated")
	}
	p.WritePage(v.Start, 10, []byte{1, 2})
	if p.ResidentPages() != 1 {
		t.Fatalf("resident = %d, want 1", p.ResidentPages())
	}
	b := p.ReadPage(v.Start)
	if b[10] != 1 || b[11] != 2 {
		t.Fatal("write not visible")
	}
	b2 := p.ReadPage(v.Start + 1)
	for _, c := range b2 {
		if c != 0 {
			t.Fatal("fresh anon page not zero")
		}
	}
}

func TestFileMappingServedByPageCache(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	f := k.FS().InstallGenerated("/usr/bin/prog", "1.0", 6*pg)
	p1 := k.Spawn("a", false)
	p2 := k.Spawn("b", false)
	v1 := p1.MapFile(f, 0, 0, "code", "prog")
	v2 := p2.MapFile(f, 0, 0, "code", "prog")
	if v1.Pages() != 6 {
		t.Fatalf("file vma pages = %d, want 6", v1.Pages())
	}
	p1.TouchAll(v1, false)
	p2.TouchAll(v2, false)
	// Both processes map the same guest-physical pages.
	g1, _ := p1.PageTable().Lookup(v1.Start)
	g2, _ := p2.PageTable().Lookup(v2.Start)
	if g1.Frame != g2.Frame {
		t.Fatal("page cache not shared between processes")
	}
	if k.Stats().PageCacheFills != 6 {
		t.Fatalf("page cache fills = %d, want 6", k.Stats().PageCacheFills)
	}
	// Content matches the file generator.
	want := make([]byte, pg)
	f.FillPage(want, 0)
	got := p1.ReadPage(v1.Start)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("file page content mismatch")
		}
	}
}

func TestWriteToFileMappingPanics(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	f := k.FS().InstallGenerated("/lib/x.so", "1", 2*pg)
	p := k.Spawn("a", false)
	v := p.MapFile(f, 0, 0, "code", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("write to file mapping did not panic")
		}
	}()
	p.WritePage(v.Start, 0, []byte{1})
}

func TestSegfaultOutsideVMA(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	p := k.Spawn("a", false)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	p.Touch(0xdead, false)
}

func TestUnmapReleasesAnonPages(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	p := k.Spawn("a", false)
	v := p.MapAnon(8, "heap", "h")
	p.TouchAll(v, true)
	used := k.UsedGuestPages()
	p.Unmap(v)
	if got := k.UsedGuestPages(); got != used-8 {
		t.Fatalf("used pages after unmap = %d, want %d", got, used-8)
	}
	if p.ResidentPages() != 0 {
		t.Fatal("PTEs survived unmap")
	}
}

func TestUnmapFileKeepsPageCache(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	f := k.FS().InstallGenerated("/jar", "1", 4*pg)
	p := k.Spawn("a", false)
	v := p.MapFile(f, 0, 0, "code", "jar")
	p.TouchAll(v, false)
	p.Unmap(v)
	c := k.CountKernelPages()
	if c.PageCacheUnmapped != 4 {
		t.Fatalf("unmapped cache pages = %d, want 4", c.PageCacheUnmapped)
	}
	// Remapping hits the cache, no new fills.
	fills := k.Stats().PageCacheFills
	v2 := p.MapFile(f, 0, 0, "code", "jar")
	p.TouchAll(v2, false)
	if k.Stats().PageCacheFills != fills {
		t.Fatal("remap refilled page cache")
	}
}

func TestExplicitFileContent(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	data := make([]byte, pg+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	k.FS().Install(&File{Path: "/cache", Data: data})
	f := k.FS().MustLookup("/cache")
	if f.SizeBytes != int64(len(data)) {
		t.Fatalf("size = %d", f.SizeBytes)
	}
	p := k.Spawn("a", false)
	v := p.MapFile(f, 0, 0, "classmeta", "cache")
	if v.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", v.Pages())
	}
	got := p.ReadPage(v.Start + 1)
	if got[0] != data[pg] {
		t.Fatal("explicit content mismatch")
	}
	// Tail beyond EOF is zero.
	if got[200] != 0 {
		t.Fatal("EOF tail not zero-padded")
	}
}

func TestIdenticalFilesAcrossVMsProduceIdenticalPages(t *testing.T) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 1024 * pg}, clock)
	var pages [][]byte
	for i := 0; i < 2; i++ {
		vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 128 * pg, Seed: mem.Seed(i + 1)})
		k := Boot(vm, KernelConfig{Version: "v"})
		f := k.FS().InstallGenerated("/opt/jvm/libjvm.so", "J9-SR9", 4*pg)
		p := k.Spawn("java", true)
		v := p.MapFile(f, 0, 0, "code", "libjvm")
		p.TouchAll(v, false)
		pages = append(pages, append([]byte(nil), p.ReadPage(v.Start+2)...))
	}
	for i := range pages[0] {
		if pages[0][i] != pages[1][i] {
			t.Fatal("same base-image file differs across VMs")
		}
	}
}

func TestPageCacheReclaimUnderPressure(t *testing.T) {
	// Guest with 32 pages; fill page cache with 24 file pages, then demand
	// 20 anon pages: the cache must shrink instead of OOMing.
	k := bootVM(t, 32, KernelConfig{Version: "v"})
	k.FS().InstallGenerated("/big", "1", 24*pg)
	k.ReadFileAll("/big")
	p := k.Spawn("a", false)
	v := p.MapAnon(20, "heap", "h")
	p.TouchAll(v, true)
	if k.Stats().OOMReclaims == 0 {
		t.Fatal("no reclaim happened")
	}
	if k.UsedGuestPages() > 32 {
		t.Fatal("guest over-allocated")
	}
}

func TestDropCaches(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	k.FS().InstallGenerated("/f", "1", 8*pg)
	k.ReadFileAll("/f")
	if k.CountKernelPages().PageCacheUnmapped != 8 {
		t.Fatal("cache not populated")
	}
	k.DropCaches()
	if k.CountKernelPages().PageCacheUnmapped != 0 {
		t.Fatal("DropCaches left pages behind")
	}
}

func TestExitCleansUp(t *testing.T) {
	k := bootVM(t, 128, KernelConfig{Version: "v"})
	p := k.Spawn("a", false)
	v := p.MapAnon(4, "heap", "h")
	p.TouchAll(v, true)
	used := k.UsedGuestPages()
	p.Exit()
	if got := k.UsedGuestPages(); got != used-4 {
		t.Fatalf("used after exit = %d, want %d", got, used-4)
	}
	if len(k.Processes()) != 0 {
		t.Fatal("process still listed after exit")
	}
}

func TestASLRDistinctCursors(t *testing.T) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 1024 * pg}, clock)
	starts := map[mem.VPN]bool{}
	for i := 0; i < 4; i++ {
		vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 64 * pg, Seed: mem.Seed(i + 1)})
		k := Boot(vm, KernelConfig{Version: "v"})
		p := k.Spawn("java", true)
		v := p.MapAnon(1, "heap", "h")
		starts[v.Start] = true
	}
	if len(starts) < 3 {
		t.Fatalf("ASLR too weak: only %d distinct bases of 4", len(starts))
	}
}

// Property: any interleaving of map/touch/unmap keeps guest page accounting
// exact: used pages equals kernel pages + resident process pages + unmapped
// cache pages.
func TestPropertyGuestAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		k := bootVM(nil, 64, KernelConfig{Version: "v", TextBytes: 2 * pg})
		k.FS().InstallGenerated("/f", "1", 4*pg)
		file := k.FS().MustLookup("/f")
		p := k.Spawn("a", false)
		var anons, files []*VMA
		for _, op := range ops {
			switch op % 5 {
			case 0:
				anons = append(anons, p.MapAnon(2, "heap", "h"))
			case 1:
				files = append(files, p.MapFile(file, 0, 0, "code", "f"))
			case 2:
				if len(anons) > 0 {
					p.TouchAll(anons[len(anons)-1], true)
				}
			case 3:
				if len(files) > 0 {
					p.TouchAll(files[len(files)-1], false)
				}
			case 4:
				if len(anons) > 0 {
					p.Unmap(anons[len(anons)-1])
					anons = anons[:len(anons)-1]
				}
			}
		}
		c := k.CountKernelPages()
		kernelPages := c.Text + c.Data + c.Slab + c.PageCacheUnmapped + c.PageCacheMappedShared
		// Count distinct resident anon pages across the process.
		anonResident := 0
		p.PageTable().RangeSorted(func(_ mem.VPN, pte mem.PTE) bool {
			if k.owners[pte.Frame] == ownerProcess {
				anonResident++
			}
			return true
		})
		return k.UsedGuestPages() == kernelPages+anonResident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFileDirtiesPageCache(t *testing.T) {
	k := bootVM(t, 256, KernelConfig{Version: "v"})
	k.FS().Install(&File{Path: "/var/log/app.log", SizeBytes: 0, ContentSeed: 1})
	k.AppendFile("/var/log/app.log", 3*pg+100, 42)
	f := k.FS().MustLookup("/var/log/app.log")
	if f.SizeBytes != int64(3*pg+100) {
		t.Fatalf("size = %d", f.SizeBytes)
	}
	if k.Stats().PageCacheDirty == 0 || k.Stats().PageCacheFills == 0 {
		t.Fatalf("stats: %+v", k.Stats())
	}
	// Appends from different writers produce different page content.
	k2 := bootVM(t, 256, KernelConfig{Version: "v"})
	k2.FS().Install(&File{Path: "/var/log/app.log", SizeBytes: 0, ContentSeed: 1})
	k2.AppendFile("/var/log/app.log", 3*pg+100, 43)
	p1 := k.pageCacheGet(k.FS().MustLookup("/var/log/app.log"), 0)
	p2 := k2.pageCacheGet(k2.FS().MustLookup("/var/log/app.log"), 0)
	b1 := k.VM().ReadGuestPage(p1)
	b2 := k2.VM().ReadGuestPage(p2)
	same := true
	for i := range b1 {
		if b1[i] != b2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different writers produced identical log pages")
	}
}

func TestAppendFileGrowsIncrementally(t *testing.T) {
	k := bootVM(t, 256, KernelConfig{Version: "v"})
	k.FS().Install(&File{Path: "/log", SizeBytes: 0, ContentSeed: 1})
	for i := 0; i < 20; i++ {
		k.AppendFile("/log", 700, 9)
	}
	f := k.FS().MustLookup("/log")
	if f.SizeBytes != 20*700 {
		t.Fatalf("size = %d", f.SizeBytes)
	}
	if got := f.Pages(pg); got != (20*700+pg-1)/pg {
		t.Fatalf("pages = %d", got)
	}
}

func TestFSPathsAndLookup(t *testing.T) {
	k := bootVM(t, 64, KernelConfig{Version: "v"})
	k.FS().InstallGenerated("/b", "1", pg)
	k.FS().InstallGenerated("/a", "1", pg)
	if _, ok := k.FS().Lookup("/a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := k.FS().Lookup("/missing"); ok {
		t.Fatal("phantom file")
	}
	paths := k.FS().Paths()
	if len(paths) != 2 || paths[0] != "/a" || paths[1] != "/b" {
		t.Fatalf("paths = %v", paths)
	}
	if k.PageSize() != pg {
		t.Fatal("PageSize accessor")
	}
}

func TestProcessAccessorsAndPageOps(t *testing.T) {
	k := bootVM(t, 64, KernelConfig{Version: "v"})
	p := k.Spawn("app", false)
	if p.Kernel() != k {
		t.Fatal("Kernel accessor")
	}
	if p.Seed() == 0 {
		t.Fatal("zero process seed")
	}
	v := p.MapAnon(2, "heap", "h")
	if len(p.VMAs()) != 1 {
		t.Fatal("VMAs accessor")
	}
	p.FillPage(v.Start, 9)
	b := p.ReadPage(v.Start)
	nz := false
	for _, c := range b {
		if c != 0 {
			nz = true
			break
		}
	}
	if !nz {
		t.Fatal("FillPage left zeros")
	}
	p.ZeroPage(v.Start)
	b = p.ReadPage(v.Start)
	for _, c := range b {
		if c != 0 {
			t.Fatal("ZeroPage left content")
		}
	}
}

func TestReclaimPagesDirect(t *testing.T) {
	k := bootVM(t, 64, KernelConfig{Version: "v"})
	k.FS().InstallGenerated("/f", "1", 8*pg)
	k.ReadFileAll("/f")
	if got := k.ReclaimPages(3); got != 3 {
		t.Fatalf("reclaimed %d, want 3", got)
	}
	if got := k.ReclaimPages(100); got != 5 {
		t.Fatalf("reclaimed %d, want the remaining 5", got)
	}
	if k.ReclaimPages(1) != 0 {
		t.Fatal("reclaimed from empty cache")
	}
}

func TestKernelOwnedPagesClasses(t *testing.T) {
	k := bootVM(t, 64, KernelConfig{Version: "v", TextBytes: 2 * pg, DataBytes: pg, SlabBytes: pg})
	k.FS().InstallGenerated("/f", "1", 2*pg)
	k.ReadFileAll("/f")
	byClass := map[KernelClass]int{}
	for _, kp := range k.KernelOwnedPages() {
		byClass[kp.Class]++
	}
	if byClass[KernelText] != 2 || byClass[KernelData] != 1 || byClass[KernelSlab] != 1 || byClass[KernelCacheUnmapped] != 2 {
		t.Fatalf("classes = %v", byClass)
	}
}
