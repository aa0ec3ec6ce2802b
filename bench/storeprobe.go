package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/store"
)

// probeStore calls both store engines directly: put, reopen (index
// rebuild or directory walk), point reads by spec and by key, a full
// scan, and — on the log engine — a compaction after a quarter of the
// entries were overwritten.
func probeStore(e *env, m metricSet) error {
	res, err := campaign.Execute(cellSpec(0, 0), 1)
	if err != nil {
		return err
	}
	for _, engine := range []string{store.EngineLog, store.EngineDir} {
		if err := probeEngine(e, m, engine, res); err != nil {
			return fmt.Errorf("%s store: %w", engine, err)
		}
	}
	return nil
}

func probeEngine(e *env, m metricSet, engine string, res *explore.Result) error {
	n := e.scaled(4000)
	rng := rand.New(rand.NewSource(1))
	dir, err := e.mkdir("probe-" + engine)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenEngine(engine, dir, nil)
	if err != nil {
		return err
	}
	// st is reassigned by the reopen below; close whichever is current.
	defer func() { st.Close() }()
	usPer := func(t0 time.Time) float64 {
		return float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
	}

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := st.Put(cellSpec(0, i), res); err != nil {
			return err
		}
	}
	m["store.put_us."+engine] = usPer(t0)

	if err := st.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if st, err = store.OpenEngine(engine, dir, nil); err != nil {
		return err
	}
	if st.Len() != n {
		return fmt.Errorf("reopened with %d entries, want %d", st.Len(), n)
	}
	m["store.open_s."+engine] = time.Since(t0).Seconds()

	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, ok := st.Get(cellSpec(0, rng.Intn(n))); !ok {
			return fmt.Errorf("Get lost an entry")
		}
	}
	m["store.get_us."+engine] = usPer(t0)
	if engine != store.EngineLog {
		return nil
	}

	keys := make([]string, n)
	for i := range keys {
		keys[i] = cellSpec(0, i).Key()
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, _, ok := st.GetByKey(keys[rng.Intn(n)]); !ok {
			return fmt.Errorf("GetByKey lost an entry")
		}
	}
	m["store.getbykey_us.log"] = usPer(t0)

	t0 = time.Now()
	seen := 0
	if err := st.Scan(func(string, store.JobSpec, []byte) error { seen++; return nil }); err != nil {
		return err
	}
	if seen != n {
		return fmt.Errorf("Scan saw %d entries, want %d", seen, n)
	}
	m["store.scan_s.log"] = time.Since(t0).Seconds()
	stats := st.Stats()
	m["store.bytes_per_entry.log"] = float64(stats.LiveBytes) / float64(stats.Entries)

	// Overwrite a quarter of the entries so the compaction has garbage.
	for i := 0; i < n/4; i++ {
		if _, err := st.Put(cellSpec(0, i), res); err != nil {
			return err
		}
	}
	t0 = time.Now()
	cs, err := st.Compact()
	if err != nil {
		return err
	}
	if cs.Live != n {
		return fmt.Errorf("compaction kept %d entries, want %d", cs.Live, n)
	}
	m["store.compact_s.log"] = time.Since(t0).Seconds()
	return nil
}
