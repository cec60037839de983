// Versioned document store: document-level multiversioning (§5.1) with
// lock-free snapshot readers running concurrently with a writer, plus
// transactional updates with rollback over the WAL (document-level
// concurrency of §5.1 backed by the reused logging infrastructure).
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"rx"
	"rx/internal/core"
	"rx/internal/pagestore"
	"rx/internal/wal"
)

func main() {
	// A logged database (in-memory store + in-memory WAL for the demo; use
	// rx.Open(path, rx.WithWAL(walPath)) for a durable one).
	logDev := &wal.MemDevice{}
	walLog, err := wal.Open(logDev)
	if err != nil {
		log.Fatal(err)
	}
	db, err := core.Open(pagestore.NewMemStore(), core.Options{WAL: walLog})
	if err != nil {
		log.Fatal(err)
	}
	col, err := db.CreateCollection("wiki", rx.CollectionOptions{Versioned: true})
	if err != nil {
		log.Fatal(err)
	}

	var id rx.DocID
	err = db.RunTxn(func(t *rx.Txn) (err error) {
		id, err = t.Insert(col, []byte(`<page><title>XML Databases</title><body>Version one.</body></page>`))
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	v1, _ := col.SnapshotVersion(id)
	fmt.Printf("created page %d at version %d\n", id, v1)

	// A long-running reader pins the snapshot...
	var snapshot bytes.Buffer
	readerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// ...while the writer publishes new versions concurrently.
		<-readerDone
		if err := col.SerializeAt(id, v1, &snapshot); err != nil {
			log.Fatal(err)
		}
	}()

	// Writer: three edits, three new versions. Readers never block it.
	bodies, _, _ := col.QueryOpts("/page/body/text()", rx.QueryOptions{})
	for i := 2; i <= 4; i++ {
		text := fmt.Sprintf("Version %d, edited in place.", i)
		if err := db.RunTxn(func(t *rx.Txn) error { return t.UpdateText(col, id, bodies[0].Node, []byte(text)) }); err != nil {
			log.Fatal(err)
		}
	}
	cur, _ := col.SnapshotVersion(id)
	fmt.Printf("after 3 edits the page is at version %d\n", cur)

	close(readerDone)
	wg.Wait()
	fmt.Printf("reader pinned to v%d still sees: %s\n", v1, snapshot.String())

	var latest bytes.Buffer
	col.SerializeAt(id, cur, &latest)
	fmt.Printf("current version reads:          %s\n", latest.String())

	// Transactional edit with rollback: the subtree insert is undone.
	tx := db.Begin()
	pages, _, _ := col.QueryOpts("/page", rx.QueryOptions{})
	if _, err := tx.InsertFragment(col, id, pages[0].Node, rx.AsLastChild,
		[]byte(`<draft>not ready</draft>`)); err != nil {
		log.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		log.Fatal(err)
	}
	var after bytes.Buffer
	col.Serialize(id, &after)
	fmt.Printf("after rolled-back edit:         %s\n", after.String())

	// Vacuum old versions once no reader needs them.
	if err := col.Vacuum(id, cur); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vacuumed versions below %d; XML table rows now: %d\n", cur, col.XMLTable().Count())
}
