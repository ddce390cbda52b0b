package main

import (
	"fmt"
	"strconv"
	"time"

	"subwarpsim/internal/config"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// node is one sisimd's tuning, kept in one place so the real daemon's
// flags and the traced pass's in-process server.Options cannot drift.
type node struct {
	workers    int
	simWorkers int
	cache      int  // memory LRU entries
	disk       bool // -cache-dir: results persist on disk behind the resilience layer
}

// anyPort lets the kernel pick the port, which is right for every
// daemon but a cluster worker: a worker's host:port is its name on the
// coordinator's hash ring, so workers on fresh ports every run would
// place the same keys differently every run.
const anyPort = "127.0.0.1:0"

// workerAddr is cluster worker i's fixed address, first for the real
// daemons and then for the traced pass's in-process ones.
func workerAddr(i int, inProcess bool) string {
	port := 18471 + i
	if inProcess {
		port += 10
	}
	return fmt.Sprintf("127.0.0.1:%d", port)
}

func (n node) flags(addr, cacheDir string) []string {
	f := []string{"-addr", addr, "-log-level", "off",
		"-workers", strconv.Itoa(n.workers), "-sim-workers", strconv.Itoa(n.simWorkers),
		"-cache", strconv.Itoa(n.cache)}
	if n.disk {
		f = append(f, "-cache-dir", cacheDir)
	}
	return f
}

// newCache mirrors cmd/sisimd's cache construction for these flags.
func (n node) newCache(cacheDir string) simcache.Cache {
	if n.disk {
		return simcache.NewResilient(simcache.NewDisk(cacheDir), simcache.ResilientOptions{
			Retries: 2, TripAfter: 5, Cooldown: 5 * time.Second, MemoryEntries: n.cache,
		})
	}
	return simcache.NewMemory(n.cache)
}

func (n node) options(cache simcache.Cache) server.Options {
	return server.Options{Workers: n.workers, SimWorkers: n.simWorkers, Cache: cache}
}

const (
	topoLibrary = iota // calls into the library, no daemon
	topoSingle         // one sisimd
	topoCluster        // three workers behind a coordinator
)

// scenario is one named workload: its load shape, its topology and the
// generator of its operations.
type scenario struct {
	name string
	why  string

	topo    int
	node    node // the single daemon, or each cluster worker
	clients int  // concurrent callers (closed loop) or connections (open loop)
	// rate, when positive, makes the load an open loop of that many
	// requests a second. No workload is one by default (see README.md,
	// "Closed loops only"); -rate sets it for a run made by hand.
	rate float64
	// resident says the workload replays keys already in the cache, so
	// an operation does not change what the next one finds; the traced
	// pass then times every level on one server. Otherwise every level
	// gets its own server, so each sees the miss the real request saw.
	resident bool

	gen func(seed int64, smoke bool) generator
}

func (s scenario) loop() string {
	if s.rate > 0 {
		return fmt.Sprintf("open loop, %g req/s over %d connections", s.rate, s.clients)
	}
	return fmt.Sprintf("closed loop, %d caller(s)", s.clients)
}

var (
	hotNode     = node{workers: 2, simWorkers: 1, cache: 4096}
	coldNode    = node{workers: 2, simWorkers: 1, cache: 4096, disk: true}
	clusterNode = node{workers: 1, simWorkers: 1, cache: 16}
)

const clusterWorkers = 3

var scenarios = []scenario{
	{
		name: "paper-sweep",
		why:  "the paper's ten traces x four SI policies: rtcore traversal and the stepped sm loop do the work, fast-forward does none",
		topo: topoLibrary, clients: 1, gen: paperSweep,
	},
	{
		name: "regular-compute",
		why:  "gemm and the divergence microbenchmark, no RT core: long straight-line blocks, the one place basic-block fast-forward wins",
		topo: topoLibrary, clients: 1, gen: regularCompute,
	},
	{
		name: "traced-run",
		why:  "runs with the cycle recorder attached and exported: the sisim -trace path, which forces the stepped regime",
		topo: topoLibrary, clients: 1, gen: tracedRun,
	},
	{
		name: "serve-cold",
		why:  "every spec distinct through one sisimd with a disk cache: decode, build, key, miss, queue, simulate, disk put, encode",
		topo: topoSingle, node: coldNode, clients: 2,
		gen: func(seed int64, smoke bool) generator {
			kinds := jobKinds()
			if smoke {
				kinds = smokeKinds()
			}
			// Two of each stratum per pass, so a pass's p95 is not its maximum.
			return coldGen{gen: newSpecGen(seed, kinds), passLen: 2 * len(kinds)}
		},
	},
	{
		name: "serve-hot",
		why:  "replays 64 resident specs: every request is a cache hit, so the request front end (build + key hash) is the whole cost",
		topo: topoSingle, node: hotNode, clients: 2, resident: true,
		gen: func(seed int64, smoke bool) generator {
			kinds, n := jobKinds(), 64
			if smoke {
				kinds, n = smokeKinds(), 4
			}
			return hotGen{seed: seed, specs: newSpecGen(seed, kinds).take(n)}
		},
	},
	{
		name: "cluster-mixed",
		why:  "Zipf popularity over 96 specs through a coordinator and three 16-entry workers: ring routing, the peer hop and aggregate cache capacity",
		topo: topoCluster, node: clusterNode, clients: 2, resident: true,
		gen: func(seed int64, smoke bool) generator {
			kinds, n, passLen := jobKinds(), 96, 100
			if smoke {
				kinds, n, passLen = smokeKinds(), 8, 20
			}
			// A pass of 100 draws holds about 35 misses, so its p95 is the
			// sixth-slowest request and not the slowest.
			return zipfGen{seed: seed, specs: newSpecGen(seed, kinds).take(n),
				head: n / 2, passLen: passLen, z: newZipf(n, 1.0)}
		},
	},
	{
		name: "submit-asm",
		why:  "distinct short assembly kernels through /v1/submit: assemble, admission, compile and a budgeted run, the front end's largest share",
		topo: topoSingle, node: hotNode, clients: 2,
		gen: func(seed int64, smoke bool) generator {
			lengths := []int{50, 100, 150, 200, 250, 300, 350, 400}
			if smoke {
				lengths = []int{50}
			}
			return newSubmitGen(seed, lengths)
		},
	},
}

func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

// smokeKinds are the cheapest strata, for -smoke.
func smokeKinds() []server.JobSpec {
	return []server.JobSpec{{Microbench: 32}, {Microbench: 16}, {Workload: "texture"}, {App: "Ctrl"}}
}

// The four Fig. 12a policies paper-sweep crosses with the traces.
type policy struct {
	name string
	cfg  config.Config
}

func sweepPolicies() []policy {
	base := config.Default()
	return []policy{
		{"baseline", base},
		{"SOS,N>=0.5", base.WithSI(false, config.TriggerHalfStalled)},
		{"Both,N>=0.5", base.WithSI(true, config.TriggerHalfStalled)},
		{"Both,N>0", base.WithSI(true, config.TriggerAnyStalled)},
	}
}

func appOp(name string, cfg config.Config, record bool) *libOp {
	p, err := workload.ProfileByName(name)
	if err != nil {
		panic(err) // appNames is the registry's own list
	}
	return &libOp{
		build:  func() (*sm.Kernel, error) { return workload.Megakernel(p) },
		cfg:    cfg,
		record: record,
		app:    &p,
	}
}

func paperSweep(seed int64, smoke bool) generator {
	apps, policies := appNames, sweepPolicies()
	if smoke {
		apps, policies = []string{"BFV1", "Ctrl"}, policies[:3:3]
	}
	var ops, warm []request
	for _, a := range apps {
		for i, p := range policies {
			r := request{label: a + "/" + p.name, kernel: a, lib: appOp(a, p.cfg, false)}
			ops = append(ops, r)
			if i == 0 && !smoke {
				warm = append(warm, r)
			}
		}
	}
	return fixedGen{seed: seed, ops: ops, warmOps: warm}
}

func microOp(subwarp, warps int) *libOp {
	p := workload.DefaultMicrobench(subwarp)
	p.NumWarps = warps
	return &libOp{
		build: func() (*sm.Kernel, error) { return workload.Microbench(p) },
		cfg:   config.Default(),
	}
}

func familyOp(name string, cfg config.Config, record bool) *libOp {
	return &libOp{
		build:  func() (*sm.Kernel, error) { return workload.BuildByName(name) },
		cfg:    cfg,
		record: record,
	}
}

// regularCompute is sixteen gemm, sixteen convergent microbenchmarks
// and one 256-warp divergence microbenchmark (BenchmarkGPURunCompiled's
// kernel) per pass: the long kernel is about half the pass's time and
// under 5 % of its operations, so it moves jobs_per_s and not the p95.
func regularCompute(seed int64, smoke bool) generator {
	gemm := request{label: "gemm", lib: familyOp("gemm", config.Default(), false)}
	small := request{label: "micro32x8", lib: microOp(32, 8)}
	big := request{label: "micro4x256", lib: microOp(4, 256)}
	n := 16
	if smoke {
		n, big = 1, request{label: "micro4x16", lib: microOp(4, 16)}
	}
	var ops []request
	for i := 0; i < n; i++ {
		ops = append(ops, gemm, small)
	}
	ops = append(ops, big)
	return fixedGen{seed: seed, ops: ops, warmOps: []request{gemm, small, big}}
}

func tracedRun(seed int64, smoke bool) generator {
	both := config.Default().WithSI(true, config.TriggerHalfStalled)
	apps := []string{"AV1", "BFV1", "BFV2", "Coll1", "Ctrl"}
	if smoke {
		apps = []string{"Ctrl"}
	}
	var ops []request
	for _, a := range apps {
		ops = append(ops, request{label: a + "+trace", lib: appOp(a, both, true)})
	}
	ops = append(ops, request{label: "bfs+trace", lib: familyOp("bfs", both, true)})
	return fixedGen{seed: seed, ops: ops, warmOps: ops}
}
