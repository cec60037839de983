package server_test

// EXPLAIN over the wire must be indistinguishable from EXPLAIN against a
// local session on the same engine: same method, same probe order, same
// estimates, same alternatives.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"rx/client"
	"rx/internal/core"
	"rx/internal/leakcheck"
	"rx/internal/server"
	"rx/internal/session"
	"rx/internal/xml"
)

func TestExplainLocalEqualsRemote(t *testing.T) {
	leakcheck.Check(t)
	db, err := core.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("cat", core.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		doc := fmt.Sprintf(`<item><sku>S%02d</sku><qty>%d</qty></item>`, i, i%5)
		if err := db.RunTxn(func(tx *core.Txn) error { _, err := tx.Insert(col, []byte(doc)); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CreateValueIndex("ix_sku", "/item/sku", xml.TString); err != nil {
		t.Fatal(err)
	}
	if err := col.CreateValueIndex("ix_qty", "/item/qty", xml.TDouble); err != nil {
		t.Fatal(err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	}()

	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	local := session.New(db)
	defer local.Close()

	ctx := context.Background()
	for _, expr := range []string{
		`/item[sku = 'S07']`,
		`/item[qty >= 3]`,
		`/item[sku = 'S07' and qty >= 3]`,
		`/item[sku = 'S01' or qty > 4]`,
		`/item/sku`,
	} {
		lp, err := local.Explain(ctx, "cat", expr)
		if err != nil {
			t.Fatalf("local explain %s: %v", expr, err)
		}
		rp, err := c.Explain(ctx, "cat", expr)
		if err != nil {
			t.Fatalf("remote explain %s: %v", expr, err)
		}
		if lp.Method != rp.Method || !reflect.DeepEqual(lp.Indexes, rp.Indexes) ||
			lp.Exact != rp.Exact || lp.EstDocs != rp.EstDocs {
			t.Errorf("%s: local plan %+v != remote plan %+v", expr, lp, rp)
		}
		// EstCost crosses the wire as exact float64 bits.
		if lp.EstCost != rp.EstCost {
			t.Errorf("%s: EstCost local %v != remote %v", expr, lp.EstCost, rp.EstCost)
		}
		if len(lp.Alternatives) != len(rp.Alternatives) {
			t.Fatalf("%s: alternatives local %+v != remote %+v", expr, lp.Alternatives, rp.Alternatives)
		}
		for i := range lp.Alternatives {
			if lp.Alternatives[i] != rp.Alternatives[i] {
				t.Errorf("%s: alternative %d local %+v != remote %+v",
					expr, i, lp.Alternatives[i], rp.Alternatives[i])
			}
		}
	}
}
