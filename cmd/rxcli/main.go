// rxcli is a command-line shell for System R/X databases.
//
// Usage:
//
//	rxcli -db data.rxdb create <collection>
//	rxcli -db data.rxdb insert <collection> <file.xml>...
//	rxcli -db data.rxdb load [-batch n] <collection> <file.xml>...
//	rxcli -db data.rxdb index <collection> <name> <xpath> <string|double|date|decimal>
//	rxcli -db data.rxdb query [-explain] <collection> <xpath>
//	rxcli -db data.rxdb explain <collection> <xpath>
//	rxcli -db data.rxdb get <collection> <docid>
//	rxcli -db data.rxdb delete <collection> <docid>
//	rxcli -db data.rxdb ls [collection]
//	rxcli -db data.rxdb stats [collection]
//	rxcli -db data.rxdb verify
//	rxcli -db data.rxdb scrub
//	rxcli -db data.rxdb repair
//	rxcli -db data.rxdb quarantine ls
//	rxcli -db data.rxdb quarantine clear <collection> <docid>
//
// explain prints the cost-based plan for a query without running it: the
// chosen access method, the indexes in probe order, the planner's
// cardinality and cost estimates, and every alternative it priced.
// query -explain prints the same plan report before the results.
//
// With -remote host:port, the session commands (create, insert, load, index,
// query, explain, get, delete, ls) run against an rxserver over the wire instead of a
// local file — same handlers, same output, the session API is just remote.
// The admin commands (stats, backup, verify, scrub, repair, quarantine)
// operate on storage directly and always need a local -db.
//
// With -wal <path>, the database runs with write-ahead logging and performs
// crash recovery on open; -group-commit <dur> additionally batches
// concurrent commits into shared log syncs (a commit waits at most that long
// for company, and only once commits have been arriving together). With
// -checksums, every page carries a CRC32 verified on read (torn-page
// detection); a database must be used with the same -checksums setting it
// was created with. The other setting is refused before anything is
// written, so repair never re-derives checksums over a file created
// without them.
//
// load is the bulk path: files are ingested in batches of -batch documents,
// each batch stored with sorted index insertion and one WAL commit. insert
// remains the one-document-one-commit path.
//
// verify scans every page and reports each failure; it exits 0 when the
// database is clean, 2 when it found corruption (checksum failures), and 1
// on I/O errors (or any other failure). scrub additionally cross-checks
// every document against its indexes and quarantines damaged ones; repair
// rebuilds damaged structures and salvages quarantined documents. -rate
// bounds scrub/repair/verify to about that many page reads per second.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rx"
	"rx/client"
	"rx/internal/xml"
)

func main() {
	dbPath := flag.String("db", "rx.rxdb", "database file")
	remote := flag.String("remote", "", "rxserver address (host:port); session commands run over the wire")
	walPath := flag.String("wal", "", "write-ahead log file (enables logging + recovery)")
	groupCommit := flag.Duration("group-commit", 0, "WAL group-commit bound: the longest a commit waits for company (0 = sync per commit; needs -wal)")
	batch := flag.Int("batch", 1000, "documents per load batch")
	checksums := flag.Bool("checksums", false, "page checksums (torn-page detection; fixed at creation)")
	jobs := flag.Int("j", 0, "query workers (0 = the engine decides from the candidates' priced work, at most GOMAXPROCS)")
	limit := flag.Int("limit", 0, "stop after this many query results (0 = all)")
	rate := flag.Int("rate", 0, "scrub/repair/verify page reads per second (0 = unthrottled)")
	degraded := flag.Bool("degraded", false, "queries skip quarantined documents instead of failing")
	explain := flag.Bool("explain", false, "query prints its cost-based plan before the results")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	cmdArgs := sessionArgs{
		jobs:     *jobs,
		limit:    *limit,
		batch:    *batch,
		degraded: *degraded,
		explain:  *explain,
	}

	if *remote != "" {
		api, err := client.Dial(*remote)
		fatal(err)
		defer api.Close()
		if !runSession(api, args[0], args[1:], cmdArgs) {
			fatal(fmt.Errorf("command %q operates on storage directly and needs a local database (drop -remote)", args[0]))
		}
		return
	}

	var opts []rx.Option
	if *walPath != "" {
		opts = append(opts, rx.WithWAL(*walPath))
		if *groupCommit > 0 {
			opts = append(opts, rx.WithGroupCommit(*groupCommit))
		}
	}
	if *checksums {
		opts = append(opts, rx.WithChecksums())
	}
	db, err := rx.Open(*dbPath, opts...)
	if err != nil {
		var pc rx.PageChecksumError
		if errors.As(err, &pc) && *checksums && args[0] == "repair" {
			// A lost sidecar checksum page can make the database unopenable
			// (the catalog's own checksum entry is gone). Under an explicit
			// repair request, re-derive the sidecars from the data and retry;
			// the repair pass that follows cross-checks the blessed pages
			// structurally.
			fmt.Fprintf(os.Stderr, "rxcli: open: %v\nrxcli: re-deriving sidecar checksums from data\n", err)
			fatal(rx.RederiveChecksums(*dbPath))
			db, err = rx.Open(*dbPath, opts...)
		} else if errors.As(err, &pc) && args[0] == "verify" {
			// Corruption severe enough to block open is still corruption.
			fmt.Fprintln(os.Stderr, "rxcli: open:", err)
			os.Exit(2)
		}
	}
	fatal(err)
	defer db.Close()

	cmd, rest := args[0], args[1:]
	if runSession(db.Session(), cmd, rest, cmdArgs) {
		return
	}
	switch cmd {
	case "backup":
		need(rest, 1, "backup <file>")
		f, err := os.Create(rest[0])
		fatal(err)
		fatal(db.Backup(f))
		fatal(f.Close())
		fmt.Printf("backup written to %s\n", rest[0])
	case "stats":
		if len(rest) == 0 {
			if code := printDBStats(db); code != 0 {
				db.Close()
				os.Exit(code)
			}
			return
		}
		col := collection(db, rest[0])
		n, _ := col.Count()
		pages, _ := col.XMLTable().Pages()
		entries, _ := col.NodeIndex().Count()
		fmt.Printf("documents:        %d\n", n)
		fmt.Printf("XML records:      %d\n", col.XMLTable().Count())
		fmt.Printf("XML table pages:  %d (%d KiB)\n", pages, pages*8)
		fmt.Printf("NodeID entries:   %d\n", entries)
		fmt.Printf("value indexes:    %s\n", strings.Join(col.ValueIndexes(), ", "))
	case "verify":
		os.Exit(verify(rx.NewScrubber(db, rx.ScrubOptions{Rate: *rate})))
	case "scrub":
		s := rx.NewScrubber(db, rx.ScrubOptions{Rate: *rate})
		rep, err := s.RunPass()
		fatal(err)
		fmt.Printf("pages scanned:      %d\n", rep.PagesScanned)
		fmt.Printf("page errors:        %d\n", len(rep.PageErrors))
		for _, pe := range rep.PageErrors {
			fmt.Printf("  page %-8d %v\n", pe.Page, pe.Err)
		}
		fmt.Printf("corrupt structures: %d\n", len(rep.CorruptStructures))
		for _, sr := range rep.CorruptStructures {
			fmt.Printf("  %s\n", sr)
		}
		fmt.Printf("newly quarantined:  %d\n", len(rep.NewQuarantined))
		for _, q := range rep.NewQuarantined {
			fmt.Printf("  %s/%d: %s\n", q.Col, q.Doc, q.Reason)
		}
		if rep.Clean() {
			fmt.Println("scrub: clean")
		} else {
			os.Exit(2)
		}
	case "repair":
		s := rx.NewScrubber(db, rx.ScrubOptions{Rate: *rate})
		rep, err := s.Repair()
		fatal(err)
		fmt.Printf("passes:             %d\n", rep.Passes)
		fmt.Printf("sidecars rederived: %v\n", rep.SidecarsRederived)
		fmt.Printf("pages reformatted:  %d\n", len(rep.PagesReformatted))
		fmt.Printf("indexes rebuilt:    %d\n", len(rep.IndexesRebuilt))
		for _, ix := range rep.IndexesRebuilt {
			fmt.Printf("  %s\n", ix)
		}
		fmt.Printf("documents repaired: %d\n", len(rep.DocsRepaired))
		for _, d := range rep.DocsRepaired {
			if d.Lossy {
				fmt.Printf("  %s/%d (lossy: %d subtrees lost)\n", d.Col, d.Doc, d.LostSubtrees)
			} else {
				fmt.Printf("  %s/%d\n", d.Col, d.Doc)
			}
		}
		if len(rep.Remaining) > 0 {
			fmt.Printf("still quarantined:  %d\n", len(rep.Remaining))
			for _, q := range rep.Remaining {
				fmt.Printf("  %s/%d: %s\n", q.Col, q.Doc, q.Reason)
			}
			os.Exit(2)
		}
		fmt.Println("repair: clean")
	case "quarantine":
		need(rest, 1, "quarantine ls | quarantine clear <collection> <docid>")
		switch rest[0] {
		case "ls":
			qs, ls := db.Quarantined(), db.LossyDocs()
			for _, q := range qs {
				fmt.Printf("%s/%d\tpage %d\t%s\n", q.Col, q.Doc, q.Page, q.Reason)
			}
			for _, l := range ls {
				fmt.Printf("%s/%d\tlossy\t%d subtrees lost\n", l.Col, l.Doc, l.LostSubtrees)
			}
			if len(qs) == 0 && len(ls) == 0 {
				fmt.Println("quarantine registry is empty (it is re-derived per session; run scrub to detect damage)")
			}
		case "clear":
			need(rest, 3, "quarantine clear <collection> <docid>")
			id, err := strconv.ParseUint(rest[2], 10, 64)
			fatal(err)
			cleared := db.ClearQuarantine(rest[1], rx.DocID(id))
			lossy := db.ClearLossy(rest[1], rx.DocID(id))
			if !cleared && !lossy {
				fatal(fmt.Errorf("doc %d in %q is not quarantined", id, rest[1]))
			}
			fmt.Printf("doc %d cleared\n", id)
		default:
			fatal(fmt.Errorf("usage: rxcli quarantine ls | quarantine clear <collection> <docid>"))
		}
	default:
		usage()
	}
}

// sessionArgs carry the flag values the session commands use.
type sessionArgs struct {
	jobs     int
	limit    int
	batch    int
	degraded bool
	explain  bool
}

// runSession executes the commands that speak the session API — the same
// handler code serves a local database (db.Session()) and a remote rxserver
// (client.Dial), which is the point of the session layer. It reports whether
// cmd was one of its commands.
func runSession(api rx.SessionAPI, cmd string, rest []string, a sessionArgs) bool {
	ctx := context.Background()
	switch cmd {
	case "create":
		need(rest, 1, "create <collection>")
		fatal(api.CreateCollection(ctx, rest[0]))
		fmt.Printf("created collection %q\n", rest[0])
	case "insert":
		need(rest, 2, "insert <collection> <file.xml>...")
		for _, path := range rest[1:] {
			data, err := os.ReadFile(path)
			fatal(err)
			id, err := api.Insert(ctx, rest[0], data)
			fatal(err)
			fmt.Printf("%s → doc %d\n", path, id)
		}
	case "load":
		need(rest, 2, "load <collection> <file.xml>...")
		if a.batch < 1 {
			fatal(fmt.Errorf("-batch must be at least 1"))
		}
		files := rest[1:]
		loaded := 0
		for len(files) > 0 {
			n := a.batch
			if n > len(files) {
				n = len(files)
			}
			docs := make([][]byte, n)
			for i, path := range files[:n] {
				data, err := os.ReadFile(path)
				fatal(err)
				docs[i] = data
			}
			ids, err := api.InsertBatch(ctx, rest[0], docs)
			fatal(err)
			for i, path := range files[:n] {
				fmt.Printf("%s → doc %d\n", path, ids[i])
			}
			loaded += n
			files = files[n:]
		}
		fmt.Printf("-- %d documents loaded in batches of up to %d\n", loaded, a.batch)
	case "index":
		need(rest, 4, "index <collection> <name> <xpath> <type>")
		var typ xml.TypeID
		switch rest[3] {
		case "string":
			typ = rx.TypeString
		case "double":
			typ = rx.TypeDouble
		case "date":
			typ = rx.TypeDate
		case "decimal":
			typ = rx.TypeDecimal
		default:
			fatal(fmt.Errorf("unknown index type %q", rest[3]))
		}
		fatal(api.CreateValueIndex(ctx, rest[0], rest[1], rest[2], typ))
		fmt.Printf("index %q on %s created\n", rest[1], rest[2])
	case "query":
		// Accept -explain after the command word too, matching the docs.
		if len(rest) > 0 && rest[0] == "-explain" {
			a.explain = true
			rest = rest[1:]
		}
		need(rest, 2, "query [-explain] <collection> <xpath>")
		opts := []rx.QueryOption{
			rx.WithValues(),
			rx.WithParallelism(a.jobs),
			rx.WithLimit(a.limit),
		}
		if a.degraded {
			opts = append(opts, rx.WithDegraded())
		}
		if a.explain {
			plan, err := api.Explain(ctx, rest[0], rest[1], rx.WithValues())
			fatal(err)
			printPlan(plan)
		}
		cur, err := api.Query(ctx, rest[0], rest[1], opts...)
		fatal(err)
		defer cur.Close()
		plan := cur.Plan()
		fmt.Printf("-- access method: %s (exact=%v, indexes=%v, candidate docs=%d, parallelism=%d)\n",
			plan.Method, plan.Exact, plan.Indexes, plan.CandidateDocs, plan.Parallelism)
		n := 0
		for cur.Next() {
			r := cur.Result()
			v := string(r.Value)
			if len(v) > 60 {
				v = v[:60] + "..."
			}
			fmt.Printf("doc %-6d node %-14s %s\n", r.Doc, r.Node, v)
			n++
		}
		fatal(cur.Err())
		fmt.Printf("-- %d results\n", n)
		if skipped := cur.Skipped(); skipped > 0 {
			fmt.Printf("-- %d quarantined documents skipped (degraded)\n", skipped)
		}
	case "explain":
		need(rest, 2, "explain <collection> <xpath>")
		plan, err := api.Explain(ctx, rest[0], rest[1], rx.WithValues())
		fatal(err)
		printPlan(plan)
	case "get":
		need(rest, 2, "get <collection> <docid>")
		id, err := strconv.ParseUint(rest[1], 10, 64)
		fatal(err)
		data, err := api.Get(ctx, rest[0], rx.DocID(id))
		fatal(err)
		os.Stdout.Write(data)
		fmt.Println()
	case "delete":
		need(rest, 2, "delete <collection> <docid>")
		id, err := strconv.ParseUint(rest[1], 10, 64)
		fatal(err)
		fatal(api.Delete(ctx, rest[0], rx.DocID(id)))
		fmt.Printf("doc %d deleted\n", id)
	case "ls":
		if len(rest) == 0 {
			names, err := api.Collections(ctx)
			fatal(err)
			for _, name := range names {
				fmt.Println(name)
			}
			return true
		}
		ids, err := api.DocIDs(ctx, rest[0])
		fatal(err)
		for _, id := range ids {
			fmt.Println(id)
		}
	default:
		return false
	}
	return true
}

// printPlan renders an EXPLAIN report: the chosen plan line, then every
// alternative the planner priced, cheapest first.
func printPlan(p *rx.Plan) {
	fmt.Printf("plan: %s\n", p.Method)
	fmt.Printf("  exact:     %v\n", p.Exact)
	if len(p.Indexes) > 0 {
		fmt.Printf("  indexes:   %s (probe order)\n", strings.Join(p.Indexes, ", "))
	}
	fmt.Printf("  est docs:  %d\n", p.EstDocs)
	fmt.Printf("  est cost:  %.2f\n", p.EstCost)
	if len(p.Alternatives) > 0 {
		fmt.Println("  alternatives (cheapest first):")
		for _, a := range p.Alternatives {
			marker := " "
			if a.Method == p.Method {
				marker = "*"
			}
			fmt.Printf("  %s %-18s est docs %-8d est cost %.2f\n", marker, a.Method, a.EstDocs, a.EstCost)
		}
	}
}

// verify scans every page, prints a per-page summary of failures, and
// returns the exit code: 0 clean, 2 corruption (checksum failures), 1 I/O
// or any other error.
func verify(s *rx.Scrubber) int {
	scanned, errs, err := s.ScanPages()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxcli: verify:", err)
		return 1
	}
	corrupt, ioErrs := 0, 0
	for _, pe := range errs {
		var pc rx.PageChecksumError
		if errors.As(pe.Err, &pc) {
			corrupt++
		} else {
			ioErrs++
		}
		fmt.Printf("page %-8d FAIL  %v\n", pe.Page, pe.Err)
	}
	fmt.Printf("%d pages scanned, %d ok, %d corrupt, %d I/O errors\n",
		scanned, scanned-len(errs), corrupt, ioErrs)
	switch {
	case ioErrs > 0:
		return 1
	case corrupt > 0:
		return 2
	default:
		fmt.Println("all pages verified")
		return 0
	}
}

// printDBStats dumps the engine-wide observability counters and returns the
// exit code: 0 healthy, 2 when the engine is up but degraded (read-only
// after resource exhaustion) — the same "serving but damaged" convention
// verify and scrub use.
func printDBStats(db *rx.DB) int {
	s := db.Stats()
	fmt.Printf("scrub passes:        %d\n", s.ScrubPasses)
	fmt.Printf("pages verified:      %d\n", s.PagesVerified)
	fmt.Printf("corruptions found:   %d\n", s.CorruptionsFound)
	fmt.Printf("docs quarantined:    %d (now: %d)\n", s.DocsQuarantined, s.QuarantinedNow)
	fmt.Printf("docs repaired:       %d (lossy: %d)\n", s.DocsRepaired, s.DocsLossy)
	fmt.Printf("indexes rebuilt:     %d\n", s.IndexesRebuilt)
	fmt.Printf("write-back retries:  %d\n", s.WriteBackRetries)
	fmt.Printf("deadlock re-runs:    %d\n", s.DeadlockReruns)
	fmt.Printf("pool hits/misses:    %d/%d (evictions: %d, write-backs: %d)\n",
		s.PoolHits, s.PoolMisses, s.PoolEvictions, s.PoolWriteBacks)
	fmt.Printf("pool residency:      %d frames\n", s.PoolResident)
	fmt.Printf("WAL commits/syncs:   %d/%d\n", s.WALCommits, s.WALSyncs)
	mode := "read-write"
	if s.DegradedReadOnly {
		mode = "READ-ONLY (degraded): " + s.DegradedReason
	}
	fmt.Printf("mode:                %s\n", mode)
	fmt.Printf("writes shed:         %d (degraded enters/exits: %d/%d)\n",
		s.WritesShed, s.DegradedEnters, s.DegradedExits)
	if s.PendingUndo > 0 {
		fmt.Printf("pending undo:        %d operations awaiting replay (in-doubt)\n", s.PendingUndo)
	}
	if s.SpaceLowWater > 0 {
		fmt.Printf("space watch:         free %d B (low %d, high %d)\n",
			s.SpaceFree, s.SpaceLowWater, s.SpaceHighWater)
	}
	limit := "unlimited"
	if s.MemLimit > 0 {
		limit = fmt.Sprintf("%d B", s.MemLimit)
	}
	fmt.Printf("memory budget:       %s (used %d, peak %d, denials %d)\n",
		limit, s.MemUsed, s.MemHighWater, s.MemDenials)
	if s.DegradedReadOnly {
		return 2
	}
	return 0
}

func collection(db *rx.DB, name string) *rx.Collection {
	col, err := db.Collection(name)
	fatal(err)
	return col
}

func need(args []string, n int, form string) {
	if len(args) < n {
		fatal(fmt.Errorf("usage: rxcli %s", form))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rxcli [-db file] [-wal file] [-j n] [-limit n] <command> ...
commands: create, insert, load, index, query, explain, get, delete, ls, stats,
          backup, verify, scrub, repair, quarantine`)
	os.Exit(2)
}
