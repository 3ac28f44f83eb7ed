package stringsched_test

import (
	"runtime"
	"testing"
	"time"

	"repro/stringsched"
)

// The leak tests count goroutines around one public entry point each, so
// none of them runs in parallel. A finished simulation must give back every
// goroutine it started: each simulated process is a coroutine goroutine
// until its cluster is closed.

// settledGoroutines polls runtime.NumGoroutine until it falls to want or a
// second passes, and returns the last count: worker pools and a closed
// shard coordinator's barrier workers exit asynchronously.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// checkNoLeak runs fn and fails if it leaves goroutines behind.
func checkNoLeak(t *testing.T, fn func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	fn()
	if got := settledGoroutines(base); got > base {
		t.Errorf("%d goroutines left behind", got-base)
	}
}

func TestLeakSuiteFig9(t *testing.T) {
	checkNoLeak(t, func() {
		s := stringsched.NewSuite(stringsched.SuiteOptions{
			Seed: 1, Requests: 4,
			Apps:  []stringsched.Kind{stringsched.Gaussian, stringsched.Scan},
			Seeds: 2,
		})
		if tab := s.Fig9(); len(tab.Series) == 0 {
			t.Fatal("Fig 9 has no series")
		}
	})
}

func TestLeakRunClusterSharded(t *testing.T) {
	spec, err := stringsched.ParseOpenArrivalSpec("poisson:rate=0.4,horizon=60s,kind=GA,life=20s,lambda=1s")
	if err != nil {
		t.Fatal(err)
	}
	sn := stringsched.ClusterSupernode{Nodes: []stringsched.NodeConfig{
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
	}}
	checkNoLeak(t, func() {
		r, err := stringsched.RunCluster(stringsched.ClusterConfig{
			Seed:       3,
			Supernodes: []stringsched.ClusterSupernode{sn, sn},
			Policy:     stringsched.ClusterPolicyLeastLoaded,
			Arrivals:   spec,
			Shards:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Finished == 0 {
			t.Fatal("cluster run finished no request")
		}
	})
}

func TestLeakRunMegaSharded(t *testing.T) {
	checkNoLeak(t, func() {
		res, _, err := stringsched.RunMegaSharded(7, 200, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finished != 200 {
			t.Fatalf("finished %d of 200 requests", res.Finished)
		}
	})
}

// TestLeakNewClusterNeverRun pins the lazy start: building a cluster starts
// no goroutine at all, and closing it is free.
func TestLeakNewClusterNeverRun(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := stringsched.NewCluster(stringsched.Config{
		Seed: 1,
		Nodes: []stringsched.NodeConfig{
			{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
		},
		Mode:      stringsched.ModeStrings,
		Balance:   "GMin",
		DevPolicy: "TFS",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("NewCluster started %d goroutines, want 0", got-base)
	}
	c.Close()
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("%d goroutines after Close, want the baseline %d", got, base)
	}
}
