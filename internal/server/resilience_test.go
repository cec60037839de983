package server_test

// Network resilience tests: server deadlines and keepalive, client
// reconnect/retry, and cursor replay across connection loss. The fault
// proxy (internal/fault) sits between a real client and a real server so
// every failure is a genuine transport event, not a mock.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"rx/client"
	"rx/internal/core"
	"rx/internal/fault"
	"rx/internal/leakcheck"
	"rx/internal/rxerr"
	"rx/internal/server"
	"rx/internal/session"
	"rx/internal/xml"
)

// startServerOn serves an engine the test has already populated, so a tiny
// RequestTimeout cannot interfere with seeding.
func startServerOn(t *testing.T, db *core.DB, opts server.Options) (*server.Server, string) {
	t.Helper()
	leakcheck.Check(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, opts)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

// startProxy puts a seeded fault proxy in front of addr.
func startProxy(t *testing.T, addr string, mk func(i int) *fault.NetInjector) *fault.Proxy {
	t.Helper()
	p, err := fault.NewProxy(addr, mk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestRequestTimeoutCancelsSlowQuery is the server-deadline acceptance: a
// query running past RequestTimeout is cancelled server-side, the client
// sees a typed deadline error, and the connection stays usable.
func TestRequestTimeoutCancelsSlowQuery(t *testing.T) {
	// The request timer fires on its own goroutine; on a single-CPU box the
	// scan loop can starve it long enough to outrun a short timeout, so give
	// the scheduler threads to preempt with.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	db, err := core.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// Seed through an embedded session so the server's aggressive timeout
	// only ever applies to the query under test.
	sess := session.New(db)
	ctx := context.Background()
	if err := sess.CreateCollection(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	// Heavy documents: each row carries ~1KB of value payload, so one
	// max-size fetch batch is megabytes of scan+serialize work.
	pad := bytes.Repeat([]byte("x"), 1024)
	docs := make([][]byte, 6000)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("<product><id>%d</id><blob>%s</blob></product>", i, pad))
	}
	if _, err := sess.InsertBatch(ctx, "big", docs); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	_, addr := startServerOn(t, db, server.Options{RequestTimeout: 5 * time.Millisecond})
	c := dial(t, addr, client.WithBatchRows(4096))

	// The predicate has no value index, forcing the lazy scan path: each
	// fetch batch evaluates thousands of documents on the worker goroutine,
	// checking the cursor context per document. The request timer cancels
	// that context mid-batch — a single fetch is tens of milliseconds of
	// work against a 5ms budget — and the fetch reports a deadline error
	// (the open may also be the one to exceed it). Scheduler jitter can
	// let an individual run squeak through, so allow a few attempts; the
	// mechanism being broken fails them all.
	sawDeadline := false
	for attempt := 0; attempt < 3 && !sawDeadline; attempt++ {
		cur, err := c.Query(ctx, "big", "/product[id >= 0]", session.NeedValues(), session.Parallelism(1))
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("query open: %v", err)
			}
			sawDeadline = true
			continue
		}
		for cur.Next() {
		}
		if err := cur.Err(); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cursor error: %v", err)
			}
			sawDeadline = true
		}
		cur.Close()
	}
	if !sawDeadline {
		t.Fatal("query repeatedly outran a 5ms RequestTimeout; server-side cancellation is not working")
	}

	// The connection survives: same conn, no reconnect.
	if _, err := c.Collections(ctx); err != nil {
		t.Fatalf("connection unusable after request timeout: %v", err)
	}
	if got := c.Reconnects(); got != 0 {
		t.Fatalf("client reconnected %d times; the connection should have survived", got)
	}
}

// TestIdleTimeoutThenTransparentReconnect: the server reaps an idle
// connection; the client's next read operation re-dials and retries
// transparently.
func TestIdleTimeoutThenTransparentReconnect(t *testing.T) {
	srv, addr := startServer(t, server.Options{IdleTimeout: 150 * time.Millisecond})
	ctx := context.Background()
	c := dial(t, addr)
	if err := c.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "idle reap", func() bool { return srv.Stats().ActiveConns == 0 })

	names, err := c.Collections(ctx)
	if err != nil || len(names) != 1 {
		t.Fatalf("after idle reap: %v %v", names, err)
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("reconnects: %d, want 1", got)
	}
}

// TestKeepaliveHoldsIdleConnOpen: with pings flowing, the same idle timeout
// never fires.
func TestKeepaliveHoldsIdleConnOpen(t *testing.T) {
	srv, addr := startServer(t, server.Options{IdleTimeout: 150 * time.Millisecond})
	c := dial(t, addr, client.WithKeepalive(30*time.Millisecond))
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	time.Sleep(500 * time.Millisecond) // > 3 idle timeouts
	if got := srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("active conns: %d, want 1 (keepalive should have held it)", got)
	}
	if got := c.Reconnects(); got != 0 {
		t.Fatalf("reconnects: %d, want 0", got)
	}
	if _, err := c.Collections(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueryReplaysAcrossMidStreamReset is the exactly-once acceptance: a
// cursor torn down mid-stream by a partial-frame reset completes
// transparently on a new connection with no duplicated and no missing rows.
func TestQueryReplaysAcrossMidStreamReset(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	ctx := context.Background()
	admin := dial(t, addr)
	if err := admin.CreateCollection(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 40)
	for i := range docs {
		docs[i] = doc(i)
	}
	ids, err := admin.InsertBatch(ctx, "c", docs)
	if err != nil {
		t.Fatal(err)
	}

	// Connection 0: the 4th server→client transfer (hello, query-open, then
	// two fetch batches) dies 7 bytes in — a torn frame mid-response.
	// Connection 1 (the replay) is clean.
	proxy := startProxy(t, addr, func(i int) *fault.NetInjector {
		if i == 0 {
			return fault.NewNetInjector(fault.NetRule{Op: fault.NetWrite, N: 4, Act: fault.NetPartial, Keep: 7})
		}
		return nil
	})
	c := dial(t, proxy.Addr(), client.WithBatchRows(4),
		client.WithRetry(client.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))

	cur, err := c.Query(ctx, "c", "//product")
	if err != nil {
		t.Fatalf("query open: %v", err)
	}
	seen := map[xml.DocID]int{}
	for cur.Next() {
		seen[cur.Result().Doc]++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor did not survive the reset: %v", err)
	}
	cur.Close()
	if len(seen) != len(ids) {
		t.Fatalf("rows: %d, want %d", len(seen), len(ids))
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("doc %d delivered %d times, want exactly once", id, seen[id])
		}
	}
	if got := c.Reconnects(); got < 1 {
		t.Fatal("stream completed without reconnecting — the fault never fired")
	}
}

// TestTxnLostSurfacesTypedError: a connection dying inside a transaction
// poisons the session with rx.ErrConnLost until Rollback acknowledges the
// loss; the server rolls the transaction back.
func TestTxnLostSurfacesTypedError(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	ctx := context.Background()
	admin := dial(t, addr)
	if err := admin.CreateCollection(ctx, "w"); err != nil {
		t.Fatal(err)
	}

	// Connection 0 dies on its 3rd response (hello, begin-OK, then the
	// insert's response is destroyed). Connection 1 is clean.
	proxy := startProxy(t, addr, func(i int) *fault.NetInjector {
		if i == 0 {
			return fault.NewNetInjector(fault.NetRule{Op: fault.NetWrite, N: 3, Act: fault.NetErr})
		}
		return nil
	})
	c := dial(t, proxy.Addr(),
		client.WithRetry(client.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Insert(ctx, "w", doc(0))
	if !errors.Is(err, rxerr.ErrConnLost) {
		t.Fatalf("insert on dying conn: %v, want ErrConnLost", err)
	}
	// Poisoned: everything refuses until the loss is acknowledged…
	if _, err := c.Collections(ctx); !errors.Is(err, rxerr.ErrConnLost) {
		t.Fatalf("read while txn lost: %v, want ErrConnLost", err)
	}
	if err := c.Commit(ctx); !errors.Is(err, rxerr.ErrConnLost) {
		t.Fatalf("commit of lost txn: %v, want ErrConnLost", err)
	}
	// …and Rollback acknowledges: the server already rolled back.
	if err := c.Rollback(ctx); err != nil {
		t.Fatalf("rollback after loss: %v", err)
	}

	// The session works again, end to end, through a fresh connection.
	if err := c.Begin(ctx); err != nil {
		t.Fatalf("begin after recovery: %v", err)
	}
	if _, err := c.Insert(ctx, "w", doc(1)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}

	// The client's Rollback after the loss answers locally; the server rolls
	// the lost transaction back when it tears the dead connection down, and
	// drops the connection from its count only after that. Wait for it: the
	// DocIDs read below takes no lock, so an insert not yet rolled back would
	// still be listed. Left are the admin connection and the recovered one.
	waitFor(t, "the lost connection's teardown", func() bool { return srv.Stats().ActiveConns == 2 })

	// Only the committed transaction's document exists.
	ids, err := admin.DocIDs(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("docs after rollback+commit: %d, want 1", len(ids))
	}
}

// TestKeepaliveFailureInTxnPoisonsSession: a keepalive ping that dies while
// a transaction sits idle must poison the session like any other transport
// loss. The regression this guards against: the failed ping tore the
// connection down without transaction bookkeeping, so the next operation
// silently reconnected and ran in auto-commit mode — writes meant to be
// atomic committed individually.
func TestKeepaliveFailureInTxnPoisonsSession(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	ctx := context.Background()
	admin := dial(t, addr)
	if err := admin.CreateCollection(ctx, "w"); err != nil {
		t.Fatal(err)
	}

	// Connection 0 destroys its 3rd response: hello-OK, begin-OK, then the
	// keepalive pong. Connection 1 (after recovery) is clean.
	proxy := startProxy(t, addr, func(i int) *fault.NetInjector {
		if i == 0 {
			return fault.NewNetInjector(fault.NetRule{Op: fault.NetWrite, N: 3, Act: fault.NetErr})
		}
		return nil
	})
	c := dial(t, proxy.Addr(), client.WithKeepalive(20*time.Millisecond),
		client.WithRetry(client.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))

	if err := c.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	// Sit idle inside the transaction until a ping fires, loses its pong,
	// and tears the connection down (observable as the server dropping to
	// the admin connection alone). No client ops here — each would reset
	// the idle clock and consume the doomed 3rd response itself.
	waitFor(t, "keepalive ping failure to tear down the connection", func() bool {
		return srv.Stats().ActiveConns == 1
	})

	// Poisoned, not silently reconnected: the write refuses to run.
	if _, err := c.Insert(ctx, "w", doc(0)); !errors.Is(err, rxerr.ErrConnLost) {
		t.Fatalf("insert after keepalive loss: %v, want ErrConnLost", err)
	}
	if err := c.Rollback(ctx); err != nil {
		t.Fatalf("rollback after loss: %v", err)
	}
	// Nothing from the lost transaction leaked into the store.
	ids, err := admin.DocIDs(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("docs after poisoned txn: %d, want 0", len(ids))
	}

	// The session works again, end to end, through a fresh connection.
	if _, err := c.Insert(ctx, "w", doc(1)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestBusyCarriesRetryAfterHint: an ErrBusy rejection carries the server's
// backoff hint across the wire.
func TestBusyCarriesRetryAfterHint(t *testing.T) {
	_, addr := startServer(t, server.Options{MaxConns: 1, BusyRetryAfter: 70 * time.Millisecond})
	dial(t, addr)

	_, err := client.Dial(addr, client.WithoutRetry())
	if !errors.Is(err, rxerr.ErrBusy) {
		t.Fatalf("over-limit dial: %v", err)
	}
	if got := rxerr.RetryAfter(err); got != 70*time.Millisecond {
		t.Fatalf("retry-after hint: %v, want 70ms", got)
	}
}
