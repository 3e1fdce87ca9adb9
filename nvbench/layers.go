package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
)

// skewHook is an nvkernel.FaultHook that never faults: it stamps each
// variant's arrival at the syscall boundary and records, for every
// rendezvous, the time from the first variant's arrival to the last.
// Variants of one lane run in lockstep, so the k-th syscall of every
// variant of a lane belongs to the same rendezvous.
type skewHook struct {
	variants int
	epoch    time.Time

	mu      sync.Mutex
	lanes   map[int]*laneArrivals
	samples []int64
}

// arrivalSlots covers the rendezvous a lane's variants can be spread
// over: lockstep keeps them within one of each other.
const arrivalSlots = 4

type laneArrivals struct {
	seq   []uint64 // per variant: syscalls submitted so far
	first [arrivalSlots]int64
	count [arrivalSlots]int
}

func newSkewHook(variants, capacity int) *skewHook {
	return &skewHook{variants: variants, epoch: time.Now(), lanes: map[int]*laneArrivals{},
		samples: make([]int64, 0, capacity)}
}

// PreSyscall implements nvkernel.FaultHook.
func (h *skewHook) PreSyscall(worker, variant int, _ sys.Num) (time.Duration, bool) {
	now := int64(time.Since(h.epoch))
	h.mu.Lock()
	l := h.lanes[worker]
	if l == nil {
		l = &laneArrivals{seq: make([]uint64, h.variants)}
		h.lanes[worker] = l
	}
	slot := l.seq[variant] % arrivalSlots
	l.seq[variant]++
	if l.count[slot] == 0 {
		l.first[slot] = now
	}
	l.count[slot]++
	if l.count[slot] == h.variants {
		l.count[slot] = 0
		if len(h.samples) < cap(h.samples) {
			h.samples = append(h.samples, now-l.first[slot])
		}
	}
	h.mu.Unlock()
	return 0, false
}

// skews returns a copy of the recorded arrival skews.
func (h *skewHook) skews() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.samples...)
}

// counter reads a registered counter.
func counter(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return float64(reg.Counter(name, "", labels...).Value())
}

// histogram reads a registered histogram's count and sum.
func histogram(reg *obs.Registry, name string) (count, sumNs float64) {
	h := reg.Histogram(name, "", nil)
	return float64(h.Count()), float64(h.Sum())
}

// sampled reads a callback-sampled series (such as simnet's buffer
// pool counters) from the registry's exposition text.
func sampled(reg *obs.Registry, name string) float64 {
	var b bytes.Buffer
	_ = reg.WritePrometheus(&b) // writes to a bytes.Buffer cannot fail
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// syscallCounts reads nvk_syscalls_total for every syscall by name.
func syscallCounts(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for n := sys.Num(1); ; n++ {
		spec, ok := sys.SpecFor(n)
		if !ok {
			return out
		}
		out[spec.Name] = counter(reg, "nvk_syscalls_total", obs.L("call", spec.Name))
	}
}

// quiesce waits until a group's syscall counters stop moving, so that
// every rendezvous of the requests already answered is counted (a
// lane closes its connection after sending the response).
func quiesce(reg *obs.Registry) {
	total := func() (t float64) {
		for _, v := range syscallCounts(reg) {
			t += v
		}
		return t
	}
	prev := total()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := total()
		if cur == prev {
			return
		}
		prev = cur
	}
}

// batches runs fn k times and returns the median of its results.
func batches(k int, fn func() float64) float64 {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// vosCosts times FS.Open plus Close, and reading, on the workload's
// document paths with the server's worker credentials.
func vosCosts(in *inputs) (openNs, readNsPerKiB float64, err error) {
	world, err := vos.NewWorld()
	if err != nil {
		return 0, 0, err
	}
	if err := in.install(world); err != nil {
		return 0, 0, err
	}
	u, ok := world.User("wwwrun")
	if !ok {
		return 0, 0, fmt.Errorf("no wwwrun user")
	}
	cred := vos.CredFor(u.UID, u.GID)
	buf := make([]byte, 4096)
	const ops = 1000
	// pass opens, optionally reads to the end, and closes ops documents.
	pass := func(read bool) (time.Duration, int, error) {
		total := 0
		t0 := time.Now()
		for j := 0; j < ops; j++ {
			d := in.docAt(j)
			f, err := world.FS.Open(d.path, vos.ReadOnly, 0, cred)
			if err != nil {
				return 0, 0, err
			}
			for read {
				n, err := f.Read(buf)
				if err != nil {
					return 0, 0, err
				}
				if n == 0 {
					break
				}
				total += n
			}
			_ = f.Close()
		}
		return time.Since(t0), total, nil
	}
	var opens, reads []float64
	for k := 0; k < 16; k++ {
		bare, _, err := pass(false)
		if err != nil {
			return 0, 0, err
		}
		full, total, err := pass(true)
		if err != nil {
			return 0, 0, err
		}
		if k > 0 { // the first pair warms up
			opens = append(opens, float64(bare)/ops)
			reads = append(reads, float64(full-bare)/(float64(total)/1024))
		}
	}
	return median(opens), median(reads), nil
}

// vmemCopyNsPerKiB times Space.WriteBytes plus ReadBytesInto at the
// workload's response sizes.
func vmemCopyNsPerKiB(in *inputs) (float64, error) {
	sp := vmem.New(vmem.PartitionNone)
	addr, err := sp.Alloc(largeMaxSize)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, largeMaxSize)
	var copyErr error
	ns := batches(15, func() float64 {
		total := 0
		t0 := time.Now()
		for j := 0; j < 500; j++ {
			body := in.docAt(j).body
			if err := sp.WriteBytes(addr, body); err != nil {
				copyErr = err
			}
			if err := sp.ReadBytesInto(addr, buf[:len(body)]); err != nil {
				copyErr = err
			}
			total += len(body)
		}
		return float64(time.Since(t0)) / (float64(total) / 1024)
	})
	return ns, copyErr
}

// generateUs times reexpress.Generate of the paper's full N=2 stack.
func generateUs() float64 {
	seed := int64(0)
	return batches(21, func() float64 {
		seed++
		t0 := time.Now()
		reexpress.Generate(seed, 2, reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
		return float64(time.Since(t0)) / 1e3
	})
}

// spawnMs times harness.StartSpec of the workload's group: a fresh
// world, the variant build and the kernel, up to a listening port.
func spawnMs(workers int) (float64, error) {
	var spawnErr error
	ms := batches(5, func() float64 {
		t0 := time.Now()
		h, err := harness.StartSpec(simnet.New(0), harness.GroupSpec{Config: harness.Config4UIDVariation, Workers: workers})
		dt := time.Since(t0)
		if err != nil {
			spawnErr = err
			return 0
		}
		if res, err := h.Stop(); err != nil {
			spawnErr = err
		} else if res.Alarm != nil {
			spawnErr = res.Alarm
		}
		return float64(dt) / 1e6
	})
	return ms, spawnErr
}

// rotateMs times Fleet.Rotate of the oldest group up to the pool
// being back at full size with the replacement.
func rotateMs(f *fleet.Fleet, drain time.Duration) (float64, error) {
	var rotErr error
	ms := batches(3, func() float64 {
		before := f.Stats()
		t0 := time.Now()
		if err := f.Rotate(f.OldestGroupID(), drain); err != nil {
			rotErr = err
			return 0
		}
		err := f.Await(func(s fleet.Stats) bool {
			return s.Rotated > before.Rotated && len(s.Healthy) >= len(before.Healthy)
		}, 15*time.Second)
		if err != nil {
			rotErr = err
		}
		return float64(time.Since(t0)) / 1e6
	})
	return ms, rotErr
}
