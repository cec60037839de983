package experiments

// E8–E10: the CPU pipelines — constructor tagging templates (Figure 5),
// parsing and validation (Figure 4, §3.2), and the insert pipeline's
// per-phase breakdown (§3.2, §6).

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rx/internal/construct"
	"rx/internal/core"
	"rx/internal/dom"
	"rx/internal/nodeid"
	"rx/internal/pack"
	"rx/internal/quickxscan"
	"rx/internal/serialize"
	"rx/internal/tokens"
	"rx/internal/vsax"
	"rx/internal/xml"
	"rx/internal/xmlgen"
	"rx/internal/xmlparse"
	"rx/internal/xmlschema"
	"rx/internal/xpath"
)

// e8 reproduces the Figure-5 constructor optimization: tagging templates vs
// naive per-row tree materialization, and XMLAGG's in-memory quicksort.
func e8(m *Meter) (*Table, error) {
	rows := m.pick(100000, 10000)
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("constructor functions over %d rows (Figure 5)", rows),
		Claim:   "flattened tagging templates avoid repeating tagging per row — 'very effective for generating XML for large numbers of repeated rows or XMLAGG' (§4.1)",
		Headers: []string{"strategy", "ms total", "µs/row", "allocs/row", "output KiB"},
	}
	dict := xml.NewDict()
	tpl, err := construct.Compile(construct.Element("Emp",
		construct.Attributes(construct.Attr("id", 0), construct.Attr("name", 1)),
		construct.Forest(construct.As("hire", 2), construct.As("department", 3)),
	), dict)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(17))
	data := make([]construct.Row, rows)
	for i := range data {
		data[i] = construct.Row{
			[]byte(fmt.Sprint(rng.Intn(100000))), []byte(xmlgen.ProductName(rng)),
			[]byte("2004-05-24"), []byte("Accounting"),
		}
	}
	var out bytes.Buffer
	for _, strategy := range []op{
		// One shared template, (template, args) intermediates.
		{"tagging template", func() error {
			s := serialize.New(&out, dict)
			for _, row := range data {
				if _, err := tpl.Emit(s, row, nil, 0); err != nil {
					return err
				}
			}
			return nil
		}},
		// A DOM subtree per row (copies + per-node allocations), then
		// serialized.
		{"per-row tree materialization", func() error {
			s := serialize.New(&out, dict)
			for _, row := range data {
				if err := vsax.FromDOM(naiveEmpNode(dict, row), s); err != nil {
					return err
				}
			}
			return nil
		}},
		// XMLAGG with ORDER BY name: in-memory quicksort of the row list.
		{"XMLAGG ORDER BY (quicksort + template)", func() error {
			agg := construct.NewAgg(tpl)
			for _, row := range data {
				agg.Add(row, row[1])
			}
			return agg.SerializeInto(&out, dict, "emps")
		}},
	} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		el, err := m.time(strategy.name, 1, func() error { out.Reset(); return strategy.run() })
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		t.Rows = append(t.Rows, []string{strategy.name, dms(el),
			f2(float64(el.Microseconds()) / float64(rows)),
			f1(float64(m1.Mallocs-m0.Mallocs) / float64(rows)), i0(out.Len() / 1024)})
	}
	return t, nil
}

func naiveEmpNode(dict *xml.Dict, row construct.Row) *dom.Node {
	intern := func(s string) xml.NameID {
		id, _ := dict.Intern(s)
		return id
	}
	emp := &dom.Node{Kind: xml.Element, Name: xml.QName{Local: intern("Emp")}, ID: nodeid.ID{0x02}}
	emp.Attrs = append(emp.Attrs,
		&dom.Node{Kind: xml.Attribute, Name: xml.QName{Local: intern("id")}, Value: append([]byte(nil), row[0]...), ID: nodeid.ID{0x02, 0x02}},
		&dom.Node{Kind: xml.Attribute, Name: xml.QName{Local: intern("name")}, Value: append([]byte(nil), row[1]...), ID: nodeid.ID{0x02, 0x04}},
	)
	mk := func(name string, v []byte, slot byte) *dom.Node {
		e := &dom.Node{Kind: xml.Element, Name: xml.QName{Local: intern(name)}, ID: nodeid.ID{0x02, slot}}
		e.Kids = append(e.Kids, &dom.Node{Kind: xml.Text, Value: append([]byte(nil), v...), ID: nodeid.ID{0x02, slot, 0x02}})
		return e
	}
	emp.Kids = append(emp.Kids, mk("hire", row[2], 0x06), mk("department", row[3], 0x08))
	return emp
}

const e9XSD = `
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Catalog">
    <xs:complexType><xs:sequence>
      <xs:element name="Categories">
        <xs:complexType><xs:sequence>
          <xs:element ref="Product" minOccurs="0" maxOccurs="unbounded"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
  <xs:element name="Product">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="ProductName" type="xs:string"/>
        <xs:element name="RegPrice" type="xs:double"/>
        <xs:element name="Discount" type="xs:double" minOccurs="0"/>
      </xs:sequence>
      <xs:attribute name="pid" type="xs:integer" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// perEventSink simulates a SAX-style interface: one virtual call and one
// small allocation per event, the overhead §3.2 blames application-domain
// interfaces for.
type perEventSink interface {
	OnEvent(kind tokens.Kind, payload []byte)
}

type countingSink struct {
	events int
	last   *eventObj
}

type eventObj struct {
	kind    tokens.Kind
	payload []byte
}

func (c *countingSink) OnEvent(kind tokens.Kind, payload []byte) {
	c.events++
	c.last = &eventObj{kind: kind, payload: payload} // per-event allocation
}

// e9 reproduces the Figure-4 / §3.2 parsing and validation costs.
func e9(m *Meter) (*Table, error) {
	products := m.pick(20000, 4000)
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("parsing and validation over a %d-product catalog (Figure 4, §3.2)", products),
		Claim:   "buffered token streams cut per-event call overhead; compiled-schema validation adds bounded cost over raw parsing (§3.2)",
		Headers: []string{"pipeline", "doc MiB", "ms", "MiB/s"},
	}
	doc := xmlgen.Catalog(rand.New(rand.NewSource(29)), products, 200)
	mib := float64(len(doc)) / (1 << 20)
	dict := xml.NewDict()
	sch, err := xmlschema.Compile([]byte(e9XSD))
	if err != nil {
		return nil, err
	}
	var took []time.Duration
	for _, pipeline := range []op{
		{"parse → buffered token stream", func() error {
			_, err := xmlparse.Parse(doc, dict, xmlparse.Options{})
			return err
		}},
		{"parse + per-event callbacks (SAX-style)", func() error {
			s, err := xmlparse.Parse(doc, dict, xmlparse.Options{})
			if err != nil {
				return err
			}
			var sink perEventSink = &countingSink{}
			for r := tokens.NewReader(s); r.More(); {
				tok, err := r.Next()
				if err != nil {
					return err
				}
				sink.OnEvent(tok.Kind, tok.Value)
			}
			return nil
		}},
		{"parse + schema validation (typed stream)", func() error {
			_, err := xmlschema.Validate(doc, sch, dict, nil)
			return err
		}},
		{"insert: one Txn (parse + pack + store + NodeID index)", func() error {
			db, col, err := memCollection(core.CollectionOptions{})
			if err != nil {
				return err
			}
			return db.RunTxn(func(t *core.Txn) error { _, err := t.Insert(col, doc); return err })
		}},
	} {
		el, err := m.time(pipeline.name, 5, pipeline.run)
		if err != nil {
			return nil, err
		}
		took = append(took, el)
		t.Rows = append(t.Rows, []string{pipeline.name, f2(mib), dms(el), f1(mib / el.Seconds())})
	}
	// Storage alone is the insert less the parse it includes.
	store := took[3] - took[0]
	t.Rows = append(t.Rows, []string{"storage alone (insert − parse)", f2(mib), dms(store), f1(mib / store.Seconds())})
	return t, nil
}

// e10 reproduces the §3.2/§6 insertion pipeline breakdown and the "XML
// processing is highly CPU-intensive" observation: the phases of loading the
// corpus — the three CPU-only ones, then the full engine insert into one
// indexed collection.
func e10(m *Meter) (*Table, error) {
	docs, products := m.pick(200, 40), 20
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("bulk load of %d docs × %d products: per-phase CPU breakdown (§3.2, §6)", docs, products),
		Claim:   "XML processing is highly CPU-intensive, with major contributors being parsing and validation, traversal, and serialization (§6)",
		Headers: []string{"phase", "ms total", "share"},
	}
	rng := rand.New(rand.NewSource(31))
	raws := generate(docs, func(int) []byte { return xmlgen.Catalog(rng, products, 200) })
	// Everything shares the database's name dictionary: a stream parsed
	// against another one would carry names the value index cannot match.
	db, col, err := memCollection(core.CollectionOptions{})
	if err != nil {
		return nil, err
	}
	dict := db.Names()
	streams := make([][]byte, docs)
	for i, raw := range raws {
		var err error
		if streams[i], err = xmlparse.Parse(raw, dict, xmlparse.Options{}); err != nil {
			return nil, err
		}
	}
	const indexPath = "/Catalog/Categories/Product/RegPrice"
	q, err := xpath.Parse(indexPath)
	if err != nil {
		return nil, err
	}
	kg, err := quickxscan.Compile(q, dict, nil, quickxscan.Options{NeedValues: true})
	if err != nil {
		return nil, err
	}
	if err := createIndexes(col, indexDef{"ix", indexPath, xml.TDouble}); err != nil {
		return nil, err
	}
	each := func(docs [][]byte, do func([]byte) error) func() error {
		return func() error {
			for _, d := range docs {
				if err := do(d); err != nil {
					return err
				}
			}
			return nil
		}
	}
	phases := []op{
		{"parse → token stream", each(raws, func(raw []byte) error {
			_, err := xmlparse.Parse(raw, dict, xmlparse.Options{})
			return err
		})},
		{"tree packing (CPU only)", each(streams, func(s []byte) error {
			return pack.PackStream(s, 0, func(pack.EncodedRecord) error { return nil })
		})},
		{"value index key generation (CPU only)", each(streams, func(s []byte) error {
			_, err := quickxscan.EvalTokens(kg, s)
			return err
		})},
		{"full insert: one Txn.InsertBatch", func() error {
			return db.RunTxn(func(t *core.Txn) error { _, err := t.InsertBatch(col, raws, core.BatchOptions{}); return err })
		}},
	}
	took := make([]time.Duration, len(phases)+1)
	for i, p := range phases {
		if took[i], err = m.time(p.name, 1, p.run); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{p.name, dms(took[i]), ""})
	}
	// The full insert parses too: what storage adds is the rest of it.
	total := took[3]
	took[4] = total - took[0]
	t.Rows = append(t.Rows, []string{"storage + B+trees (insert − parse)", dms(took[4]), ""})
	for i, row := range t.Rows {
		row[2] = fmt.Sprintf("%2.0f%%", 100*float64(took[i])/float64(total))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pure XML CPU work (parse+pack+keygen) is %.0f%% of a full insert — confirming the §6 claim",
			100*float64(took[0]+took[1]+took[2])/float64(total)))
	return t, nil
}

// e10Cases — gated: parse + shred + index maintenance, one document per
// transaction.
func e10Cases() ([]Case, error) {
	return []Case{{Name: "insert", Gated: true, Run: func(b *testing.B) {
		db, col, err := memCollection(core.CollectionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		doc := xmlgen.Product(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.RunTxn(func(t *core.Txn) error { _, err := t.Insert(col, doc); return err }); err != nil {
				b.Fatal(err)
			}
		}
	}}}, nil
}
