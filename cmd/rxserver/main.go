// Command rxserver serves an rx database over TCP. Each connection gets its
// own session (transaction scope); queries stream back in cursor-sized
// batches; SIGTERM/SIGINT drains gracefully: in-flight requests finish, open
// transactions of dropped clients roll back, and the process exits 0.
//
//	rxserver -db data.rxdb -wal data.wal -addr :7345
//	rxcli -remote localhost:7345 query books '/book[price < 10]'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rx"
	"rx/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7345", "listen address")
		dbPath       = flag.String("db", "", "database file (empty = in-memory)")
		walPath      = flag.String("wal", "", "write-ahead log file (enables transactions + crash recovery)")
		poolPages    = flag.Int("pool", 0, "buffer pool pages (0 = default)")
		checksums    = flag.Bool("checksums", false, "enable torn-page detection (CRC per page)")
		groupCommit  = flag.Duration("group-commit", 0, "WAL group-commit bound: the longest a commit waits for company (0 = off)")
		lockTimeout  = flag.Duration("lock-timeout", 0, "lock wait timeout (0 = default)")
		maxConns     = flag.Int("max-conns", 64, "connection limit; beyond it clients get a busy error")
		maxWaiters   = flag.Int("max-lock-waiters", 128, "shed writes while this many lock requests wait")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown limit before force close")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request execution limit; a query running longer is cancelled server-side (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections with no request for this long; clients reconnect transparently (0 = never)")
		keepalive    = flag.Duration("keepalive", 3*time.Minute, "TCP keepalive probe period on accepted connections (0 = OS default)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		memBudget    = flag.Int64("mem-budget", 0, "engine-wide memory budget in bytes for buffered results and bulk staging (0 = unlimited)")
		sessMem      = flag.Int64("session-mem", 0, "per-connection memory cap in bytes (0 = only the engine budget)")
		queryMem     = flag.Int64("query-mem", 0, "per-query memory cap in bytes (0 = none)")
		spaceLow     = flag.Int64("space-low", 0, "free-disk low-water mark in bytes: below it the engine goes read-only (0 = no watchdog)")
		spaceHigh    = flag.Int64("space-high", 0, "free-disk recovery mark in bytes (0 = 2*space-low)")
		spaceEvery   = flag.Duration("space-interval", 0, "free-disk probe interval (0 = 1s)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rxserver: pprof:", err)
			}
		}()
	}

	var opts []rx.Option
	if *walPath != "" {
		opts = append(opts, rx.WithWAL(*walPath))
	}
	if *poolPages > 0 {
		opts = append(opts, rx.WithPoolPages(*poolPages))
	}
	if *checksums {
		opts = append(opts, rx.WithChecksums())
	}
	if *groupCommit > 0 {
		opts = append(opts, rx.WithGroupCommit(*groupCommit))
	}
	if *lockTimeout > 0 {
		opts = append(opts, rx.WithLockTimeout(*lockTimeout))
	}
	if *memBudget > 0 {
		opts = append(opts, rx.WithMemoryBudget(*memBudget))
	}
	if *spaceLow > 0 {
		if *dbPath == "" {
			fmt.Fprintln(os.Stderr, "rxserver: -space-low needs a file-backed database (-db)")
			os.Exit(1)
		}
		opts = append(opts, rx.WithSpaceWatch(*spaceLow, *spaceHigh, *spaceEvery))
	}
	db, err := rx.Open(*dbPath, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxserver: open:", err)
		os.Exit(1)
	}

	lc := net.ListenConfig{KeepAlive: *keepalive}
	lis, err := lc.Listen(context.Background(), "tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxserver: listen:", err)
		os.Exit(1)
	}
	srv := server.New(db.Engine(), server.Options{
		MaxConns:        *maxConns,
		MaxLockWaiters:  *maxWaiters,
		RequestTimeout:  *reqTimeout,
		IdleTimeout:     *idleTimeout,
		SessionMemLimit: *sessMem,
		QueryMemLimit:   *queryMem,
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "rxserver: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rxserver: drain:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "rxserver: serving %s on %s\n", describe(*dbPath), lis.Addr())
	serveErr := srv.Serve(lis)
	// Serve returns as soon as the listener closes; the drain in the signal
	// goroutine may still be waiting out busy connections. Shutdown is
	// idempotent and waits for every connection handler, so calling it again
	// here guarantees no request touches the engine after db.Close.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rxserver: drain:", err)
	}
	drainCancel()
	closeErr := db.Close()
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "rxserver: serve:", serveErr)
		os.Exit(1)
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "rxserver: close:", closeErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rxserver: drained")
}

func describe(path string) string {
	if path == "" {
		return "in-memory database"
	}
	return path
}
