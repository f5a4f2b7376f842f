package bench

import (
	"fmt"
	"sync"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/server"
	"oblidb/internal/table"
)

// This file measures engine read concurrency (DESIGN.md §16): served
// read-heavy throughput as server.Config.Workers sweeps 1 → 8, with the
// engine's read-slot context pool sized to match. Every statement is a
// full-scan aggregate over the same flat table, so the epoch scheduler
// fans whole read runs out to concurrent slots while the trace each
// slot emits stays the serial trace.
//
// Untrusted memory is given a modeled per-block access latency
// (core.Config.StoreLatency) for this figure: in a deployed enclave
// every sealed-block access pays an OCALL or storage round trip, and it
// is that waiting — not the AES — which concurrent read slots overlap.
// With the latency at zero the figure would instead measure how many
// cores the host has, which is not this PR's claim.

// concurrencyStoreLatency is the modeled cost of one untrusted
// sealed-block access, applied to every store read and write during the
// sweep. 100µs is a conservative stand-in for an SGX OCALL plus a
// local NVMe or remote-store hop.
const concurrencyStoreLatency = 100 * time.Microsecond

// concurrencyWorkers is the Workers sweep of the figure.
var concurrencyWorkers = []int{1, 2, 4, 8}

// concurrencyCell is one Workers point of the "concurrency" figure.
type concurrencyCell struct {
	Workers     int
	Clients     int
	Stmts       int
	Elapsed     time.Duration
	StmtsPerSec float64
	Speedup     float64
	DummyShare  float64
}

// concurrencyPoint measures served read-heavy throughput at one worker
// count: a loopback server, a preloaded flat table, and 2× epoch-size
// synchronous clients issuing point-COUNT scans so the queue keeps
// every epoch's slots full.
func concurrencyPoint(o Options, workers, rows, perClient int) (concurrencyCell, error) {
	const epochSize = 8
	clients := 2 * epochSize
	srv, err := server.New(server.Config{
		Engine: core.Config{
			ObliviousMemory: o.obliviousMemory(),
			Seed:            o.seed(),
			StoreLatency:    concurrencyStoreLatency,
		},
		EpochSize:     epochSize,
		EpochInterval: time.Millisecond,
		Workers:       workers,
	})
	if err != nil {
		return concurrencyCell{}, err
	}
	defer srv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0") }()
	for srv.Addr() == nil {
		select {
		case err := <-serveErr:
			return concurrencyCell{}, err
		default:
			time.Sleep(time.Millisecond)
		}
	}
	addr := srv.Addr().String()

	setup, err := client.Dial(addr)
	if err != nil {
		return concurrencyCell{}, err
	}
	defer setup.Close()
	if _, err := setup.Exec(fmt.Sprintf(
		"CREATE TABLE s (k INTEGER, payload VARCHAR(32)) CAPACITY = %d", rows+64)); err != nil {
		return concurrencyCell{}, err
	}
	// Preload through the engine directly: the figure measures read
	// throughput, not load time.
	preload := make([]table.Row, rows)
	for i := range preload {
		preload[i] = table.Row{table.Int(int64(i)), table.Str(fmt.Sprintf("payload-%016d", i))}
	}
	if err := srv.DB().BulkLoad("s", preload); err != nil {
		return concurrencyCell{}, err
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	base := srv.Stats()
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				k := (w*perClient + i) % rows
				if _, err := c.Exec(fmt.Sprintf("SELECT COUNT(*) FROM s WHERE k = %d", k)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return concurrencyCell{}, err
		}
	}
	st := srv.Stats()
	real, dummy := st.Real-base.Real, st.Dummy-base.Dummy
	total := clients * perClient
	return concurrencyCell{
		Workers:     workers,
		Clients:     clients,
		Stmts:       total,
		Elapsed:     elapsed,
		StmtsPerSec: float64(total) / elapsed.Seconds(),
		DummyShare:  float64(dummy) / float64(real+dummy),
	}, nil
}

// measureConcurrency runs the Workers sweep and fills each cell's
// speedup relative to the serial point.
func measureConcurrency(o Options) ([]concurrencyCell, error) {
	rows := o.n(8000)
	perClient := o.n(120)
	var cells []concurrencyCell
	for _, w := range concurrencyWorkers {
		cell, err := concurrencyPoint(o, w, rows, perClient)
		if err != nil {
			return nil, fmt.Errorf("concurrency workers=%d: %w", w, err)
		}
		if len(cells) > 0 {
			cell.Speedup = cell.StmtsPerSec / cells[0].StmtsPerSec
		} else {
			cell.Speedup = 1
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// RunConcurrency is the "concurrency" figure: served read-heavy
// throughput at Workers ∈ {1, 2, 4, 8}.
func RunConcurrency(o Options) error {
	o.printf("Read concurrency: served read-heavy throughput vs epoch workers\n")
	cells, err := measureConcurrency(o)
	if err != nil {
		return err
	}
	tp := newTable("Workers", "Clients", "Stmts", "Elapsed", "Stmts/sec", "Speedup", "Dummy share")
	for _, c := range cells {
		tp.addf(c.Workers, c.Clients, c.Stmts,
			c.Elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.0f", c.StmtsPerSec),
			fmt.Sprintf("%.2fx", c.Speedup),
			fmt.Sprintf("%.0f%%", 100*c.DummyShare))
	}
	tp.render(o.Out)
	o.printf("  (loopback TCP, 8-slot 1ms epochs, full-scan COUNT statements over one\n")
	o.printf("   flat table; untrusted block accesses pay a modeled %s host latency,\n", concurrencyStoreLatency)
	o.printf("   which concurrent read slots overlap — DESIGN.md §16)\n\n")
	return nil
}
