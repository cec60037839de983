package server_test

// Chaos suite: real rxserver traffic proxied through the seeded fault
// injector (internal/fault) across a matrix of schedules. Each seed derives
// a deterministic per-connection fault script — latency, hard errors,
// mid-frame resets, clean resets, black-hole stalls — and the assertions
// are the resilience contract, not any particular outcome:
//
//   - no operation hangs (every op runs under a context deadline, and the
//     server's idle/write deadlines break stalls);
//   - every surfaced error is typed (rx taxonomy, ErrConnLost, or a
//     context error) — never a raw socket error;
//   - a query that completes reports exactly the collection's documents,
//     each exactly once, no matter how many reconnects it took;
//   - transactions are atomic: the committed-document count lands between
//     the acknowledged commits and the attempted commits (a commit whose
//     ack was destroyed may have landed; one never sent may not);
//   - nothing leaks: connections drain on shutdown and goroutine counts
//     converge (leakcheck).
//
// FAULT_SEEDS chooses the seed window (default 1-20; see fault.Seeds); a
// failing seed appends the line that reruns it to the file FAULT_ARTIFACT
// names.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rx/client"
	"rx/internal/fault"
	"rx/internal/rxerr"
	"rx/internal/server"
	"rx/internal/xml"
)

// requireTyped fails the test on any error outside the resilience
// contract: the rx taxonomy, the connection-loss sentinel, and context
// errors are the only errors a chaos client may see.
func requireTyped(t *testing.T, op string, err error) {
	t.Helper()
	for _, want := range []error{
		rxerr.ErrConnLost,
		rxerr.ErrBusy,
		rxerr.ErrLockTimeout,
		rxerr.ErrNotFound,
		context.Canceled,
		context.DeadlineExceeded,
		client.ErrClosed,
	} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("%s: untyped error escaped to the client: %v (%T)", op, err, err)
}

func TestChaosSeedMatrix(t *testing.T) {
	seeds, err := fault.Seeds("1-20")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSeed(t, seed)
		})
		if !ok {
			if err := fault.Record(seed, "./internal/server", "TestChaosSeedMatrix", "network chaos"); err != nil {
				t.Logf("%s: %v", fault.ArtifactEnv, err)
			}
		}
	}
}

func runChaosSeed(t *testing.T, seed int64) {
	srv, addr := startServer(t, server.Options{
		// Short server deadlines are what keep black-hole stalls from
		// hanging anything: the idle watchdog breaks a silent connection
		// well inside every client context below.
		RequestTimeout: 2 * time.Second,
		IdleTimeout:    300 * time.Millisecond,
		WriteTimeout:   2 * time.Second,
	})
	bg := context.Background()

	// The admin client bypasses the proxy: it seeds fixtures and audits
	// invariants over a fault-free connection.
	admin := dial(t, addr)
	if err := admin.CreateCollection(bg, "c"); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateCollection(bg, "w"); err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 40)
	for i := range docs {
		docs[i] = doc(i)
	}
	ids, err := admin.InsertBatch(bg, "c", docs)
	if err != nil {
		t.Fatal(err)
	}

	// Every proxied connection gets its own schedule, derived from
	// (seed, accept index) — reconnects meet fresh faults, deterministically.
	profile := fault.NetProfile{Ops: 30, Faults: 2}
	proxy := startProxy(t, addr, func(i int) *fault.NetInjector {
		return fault.NewNetInjector(fault.NetSchedule(seed*1000+int64(i), profile)...)
	})
	// A short cancel grace keeps black-hole schedules cheap: when a stalled
	// connection swallows the cancel frame, the client gives up on it after
	// 500ms instead of the 10s default.
	c := dial(t, proxy.Addr(), client.WithBatchRows(8),
		client.WithRetry(client.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}),
		client.WithCancelGrace(500*time.Millisecond))

	commitsAcked, commitsTried := 0, 0
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)

		// Idempotent read: retried transparently or typed, never raw.
		if got, err := c.DocIDs(ctx, "c"); err != nil {
			requireTyped(t, "DocIDs", err)
		} else if len(got) != len(ids) {
			t.Fatalf("round %d: DocIDs returned %d ids, want %d", round, len(got), len(ids))
		}

		// Streaming query: if it completes, it is exactly-once.
		if cur, err := c.Query(ctx, "c", "/product"); err != nil {
			requireTyped(t, "Query", err)
		} else {
			seen := map[xml.DocID]int{}
			for cur.Next() {
				seen[cur.Result().Doc]++
			}
			if err := cur.Err(); err != nil {
				requireTyped(t, "Cursor", err)
			} else {
				if len(seen) != len(ids) {
					t.Fatalf("round %d: stream delivered %d distinct docs, want %d", round, len(seen), len(ids))
				}
				for id, n := range seen {
					if n != 1 {
						t.Fatalf("round %d: doc %d delivered %d times", round, id, n)
					}
				}
			}
			cur.Close()
		}

		// Transaction: never retried through faults; losses surface typed
		// and Rollback acknowledges them.
		if err := c.Begin(ctx); err != nil {
			requireTyped(t, "Begin", err)
		} else if _, err := c.Insert(ctx, "w", doc(round)); err != nil {
			requireTyped(t, "Insert", err)
			if err := c.Rollback(ctx); err != nil {
				requireTyped(t, "Rollback", err)
			}
		} else {
			commitsTried++
			if err := c.Commit(ctx); err != nil {
				requireTyped(t, "Commit", err)
				if err := c.Rollback(ctx); err != nil {
					requireTyped(t, "Rollback", err)
				}
			} else {
				commitsAcked++
			}
		}
		cancel()
	}
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	// Atomicity audit over the clean connection: every acknowledged commit
	// is durable; an unacknowledged one may or may not have landed; nothing
	// else exists.
	wIDs, err := admin.DocIDs(bg, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(wIDs) < commitsAcked || len(wIDs) > commitsTried {
		t.Fatalf("txn atomicity: %d docs in w, want between %d acked and %d attempted commits",
			len(wIDs), commitsAcked, commitsTried)
	}

	// The engine's counters must converge once the chaos client is gone
	// (its cursors closed or torn down with their connections).
	waitFor(t, "cursor drain", func() bool { return srv.Stats().OpenCursors == 0 })
}
