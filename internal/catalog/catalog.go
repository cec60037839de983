// Package catalog implements the catalog & directory of Figure 1: the
// database-wide name dictionary (persistent xml.Names implementation), the
// metadata for collections (base table, internal XML table, DocID and NodeID
// indexes, XPath value indexes) and registered compiled schemas. Catalog
// data lives in ordinary heap tables, just as the paper stores its catalog
// in the relational engine's own tables.
//
// Database layout: page 0 is the database meta page holding the magic number
// and the first pages of the three catalog tables.
package catalog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"rx/internal/buffer"
	"rx/internal/heap"
	"rx/internal/pagestore"
	"rx/internal/xml"
)

const magic = 0x52582F58 // "RX/X"

// docIDChunk is how many DocIDs are claimed per catalog write, so a bulk
// load does not rewrite the collection row per document.
const docIDChunk = 64

// ValueIndexMeta describes one XPath value index (§3.3): a simple XPath
// expression without predicates plus a key type.
type ValueIndexMeta struct {
	Name string
	Path string
	// Type is the key type: xml.TString, TDouble, TDate or TDecimal.
	Type xml.TypeID
	// Meta is the B+tree meta page of the index.
	Meta pagestore.PageID
	// SingleValued records that no stored document has ever had two or more
	// nodes on Path: set when the index is created over such a collection,
	// cleared for good by the first write that breaks it (before that write's
	// entries go in), never set again. Rows written without it read as unset.
	SingleValued bool `json:",omitempty"`
}

// Collection is the stored metadata for one collection: a base table with an
// implicit DocID column and one XML column, backed by an internal XML table
// (Figure 2).
type Collection struct {
	Name string
	// BaseTable is the base table's first heap page (rows: DocID, XML handle).
	BaseTable pagestore.PageID
	// XMLTable is the internal XML table's first heap page (rows: DocID,
	// minNodeID, XMLData).
	XMLTable pagestore.PageID
	// DocIDIndex maps DocID to the base-table row RID.
	DocIDIndex pagestore.PageID
	// NodeIDIndex maps (DocID, NodeID interval upper endpoint) to RIDs.
	NodeIDIndex pagestore.PageID
	// PackThreshold is the record-size threshold used when packing documents
	// of this collection (0 = default).
	PackThreshold int
	// Versioned enables document-level multiversioning (§5.1): the NodeID
	// index keys carry a version number and readers see snapshots.
	Versioned bool
	// NextDocID is the persisted high-water mark for DocID allocation.
	NextDocID uint64
	// Indexes are the collection's XPath value indexes.
	Indexes []ValueIndexMeta

	rid heap.RID // catalog row, for updates
}

// SchemaMeta is a registered, compiled XML schema (Figure 4: schemas are
// compiled to a binary format at registration and stored in the catalog).
type SchemaMeta struct {
	Name   string
	Binary []byte

	rid heap.RID
}

// Catalog is the open catalog.
type Catalog struct {
	pool *buffer.Pool

	mu      sync.RWMutex
	names   *heap.Table
	cols    *heap.Table
	schemas *heap.Table
	byStr   map[string]xml.NameID
	byID    []string
	colMap  map[string]*Collection
	schMap  map[string]*SchemaMeta
}

// Bootstrap formats a fresh store (meta page + empty catalog tables) and
// returns the open catalog. The store must be empty.
func Bootstrap(pool *buffer.Pool) (*Catalog, error) {
	if pool.Store().NumPages() != 0 {
		return nil, errors.New("catalog: store is not empty")
	}
	metaFrame, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	if id := metaFrame.ID(); id != 0 {
		pool.Unpin(metaFrame, false)
		return nil, fmt.Errorf("catalog: meta page allocated as %d, want 0", id)
	}
	names, err := heap.Create(pool)
	if err != nil {
		pool.Unpin(metaFrame, false)
		return nil, err
	}
	cols, err := heap.Create(pool)
	if err != nil {
		pool.Unpin(metaFrame, false)
		return nil, err
	}
	schemas, err := heap.Create(pool)
	if err != nil {
		pool.Unpin(metaFrame, false)
		return nil, err
	}
	err = pool.Modify(metaFrame, func(d []byte) error {
		binary.BigEndian.PutUint32(d[8:12], magic)
		binary.BigEndian.PutUint32(d[12:16], uint32(names.FirstPage()))
		binary.BigEndian.PutUint32(d[16:20], uint32(cols.FirstPage()))
		binary.BigEndian.PutUint32(d[20:24], uint32(schemas.FirstPage()))
		return nil
	})
	pool.Unpin(metaFrame, false)
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		pool:    pool,
		names:   names,
		cols:    cols,
		schemas: schemas,
		byStr:   map[string]xml.NameID{"": xml.NoName},
		byID:    []string{""},
		colMap:  map[string]*Collection{},
		schMap:  map[string]*SchemaMeta{},
	}
	return c, nil
}

// IsMetaPage reports whether a raw page image carries the database meta
// page's magic number. It lets a caller find the meta page in a file, and
// so the file's page layout, before any engine structure is built over it.
func IsMetaPage(page []byte) bool { return binary.BigEndian.Uint32(page[8:12]) == magic }

// Open loads the catalog from an already formatted store.
func Open(pool *buffer.Pool) (*Catalog, error) {
	f, err := pool.Fetch(0)
	if err != nil {
		return nil, err
	}
	f.RLock()
	m := binary.BigEndian.Uint32(f.Data[8:12])
	namesPg := pagestore.PageID(binary.BigEndian.Uint32(f.Data[12:16]))
	colsPg := pagestore.PageID(binary.BigEndian.Uint32(f.Data[16:20]))
	schPg := pagestore.PageID(binary.BigEndian.Uint32(f.Data[20:24]))
	f.RUnlock()
	pool.Unpin(f, false)
	if m != magic {
		return nil, fmt.Errorf("catalog: bad magic 0x%08x", m)
	}
	names, err := heap.Open(pool, namesPg)
	if err != nil {
		return nil, err
	}
	cols, err := heap.Open(pool, colsPg)
	if err != nil {
		return nil, err
	}
	schemas, err := heap.Open(pool, schPg)
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		pool:    pool,
		names:   names,
		cols:    cols,
		schemas: schemas,
		byStr:   map[string]xml.NameID{"": xml.NoName},
		byID:    []string{""},
		colMap:  map[string]*Collection{},
		schMap:  map[string]*SchemaMeta{},
	}
	// Rebuild the in-memory name dictionary. Rows are (id uvarint, name).
	type nameRow struct {
		id   uint64
		name string
	}
	var rows []nameRow
	err = names.Scan(func(rid heap.RID, payload []byte) error {
		id, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("catalog: corrupt name row")
		}
		rows = append(rows, nameRow{id, string(payload[n:])})
		return nil
	})
	if err != nil {
		return nil, err
	}
	maxID := uint64(0)
	for _, r := range rows {
		if r.id > maxID {
			maxID = r.id
		}
	}
	c.byID = make([]string, maxID+1)
	for _, r := range rows {
		c.byID[r.id] = r.name
		c.byStr[r.name] = xml.NameID(r.id)
	}
	// Load collections.
	err = cols.Scan(func(rid heap.RID, payload []byte) error {
		var col Collection
		if err := json.Unmarshal(payload, &col); err != nil {
			return fmt.Errorf("catalog: corrupt collection row: %v", err)
		}
		col.rid = rid
		c.colMap[col.Name] = &col
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Load schemas. Rows are (nameLen uvarint, name, binary).
	err = schemas.Scan(func(rid heap.RID, payload []byte) error {
		l, n := binary.Uvarint(payload)
		if n <= 0 || int(l)+n > len(payload) {
			return errors.New("catalog: corrupt schema row")
		}
		s := &SchemaMeta{
			Name:   string(payload[n : n+int(l)]),
			Binary: append([]byte(nil), payload[n+int(l):]...),
			rid:    rid,
		}
		c.schMap[s.Name] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Known returns name's ID if the dictionary holds it, without interning it.
func (c *Catalog) Known(name string) (xml.NameID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.byStr[name]
	return id, ok
}

// Intern implements xml.Names, persisting new names.
func (c *Catalog) Intern(name string) (xml.NameID, error) {
	c.mu.RLock()
	id, ok := c.byStr[name]
	c.mu.RUnlock()
	if ok {
		return id, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.byStr[name]; ok {
		return id, nil
	}
	id = xml.NameID(len(c.byID))
	row := binary.AppendUvarint(nil, uint64(id))
	row = append(row, name...)
	if _, err := c.names.Insert(row); err != nil {
		return 0, err
	}
	c.byID = append(c.byID, name)
	c.byStr[name] = id
	return id, nil
}

// Lookup implements xml.Names.
func (c *Catalog) Lookup(id xml.NameID) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(id) >= len(c.byID) {
		return "", fmt.Errorf("catalog: unknown name ID %d", id)
	}
	return c.byID[id], nil
}

// AddCollection persists a new collection's metadata.
func (c *Catalog) AddCollection(col *Collection) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.colMap[col.Name]; exists {
		return fmt.Errorf("catalog: collection %q already exists", col.Name)
	}
	payload, err := json.Marshal(col)
	if err != nil {
		return err
	}
	rid, err := c.cols.Insert(payload)
	if err != nil {
		return err
	}
	col.rid = rid
	c.colMap[col.Name] = col
	return nil
}

// UpdateCollection rewrites a collection's catalog row (index list changes,
// DocID high-water mark bumps).
func (c *Catalog) UpdateCollection(col *Collection) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updateLocked(col)
}

// updateLocked rewrites the collection's row. Whichever write it is, the row
// carries the DocID chunk ceiling, never the last DocID handed out: a row
// rewritten mid-chunk (index DDL, an index flag) must not lower the
// high-water mark below IDs that a crash may leave durable. Fields of older
// rows that Collection no longer has (a statistics object) are dropped here.
func (c *Catalog) updateLocked(col *Collection) error {
	row := *col
	row.NextDocID = (col.NextDocID + docIDChunk - 1) / docIDChunk * docIDChunk
	payload, err := json.Marshal(&row)
	if err != nil {
		return err
	}
	return c.cols.Update(col.rid, payload)
}

// ClearSingleValued unsets the named index's SingleValued flag and rewrites
// the collection's row.
func (c *Catalog) ClearSingleValued(col *Collection, index string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range col.Indexes {
		if col.Indexes[i].Name == index {
			col.Indexes[i].SingleValued = false
		}
	}
	return c.updateLocked(col)
}

// GetCollection returns a collection's metadata, or nil.
func (c *Catalog) GetCollection(name string) *Collection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.colMap[name]
}

// Collections lists all collection names.
func (c *Catalog) Collections() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for n := range c.colMap {
		names = append(names, n)
	}
	return names
}

// DropCollection removes a collection's metadata row. (The engine is
// responsible for the data itself.)
func (c *Catalog) DropCollection(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	col, ok := c.colMap[name]
	if !ok {
		return fmt.Errorf("catalog: no collection %q", name)
	}
	if err := c.cols.Delete(col.rid); err != nil {
		return err
	}
	delete(c.colMap, name)
	return nil
}

// AllocDocID claims the next DocID for the collection (DocIDs start at 1).
// The high-water mark is persisted a chunk ahead, so bulk loads do not
// rewrite the catalog row per document; after a reopen, allocation resumes
// past the persisted ceiling and at most one chunk of IDs is skipped.
func (c *Catalog) AllocDocID(col *Collection) (xml.DocID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	col.NextDocID++
	if col.NextDocID%docIDChunk == 1 {
		if err := c.updateLocked(col); err != nil { // persists the chunk ceiling
			col.NextDocID--
			return 0, err
		}
	}
	return xml.DocID(col.NextDocID), nil
}

// RegisterSchema stores a compiled schema under name (Figure 4).
func (c *Catalog) RegisterSchema(name string, bin []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.schMap[name]; exists {
		return fmt.Errorf("catalog: schema %q already registered", name)
	}
	row := binary.AppendUvarint(nil, uint64(len(name)))
	row = append(row, name...)
	row = append(row, bin...)
	rid, err := c.schemas.Insert(row)
	if err != nil {
		return err
	}
	c.schMap[name] = &SchemaMeta{Name: name, Binary: append([]byte(nil), bin...), rid: rid}
	return nil
}

// GetSchema returns a registered schema's compiled binary, or nil.
func (c *Catalog) GetSchema(name string) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.schMap[name]; ok {
		return s.Binary
	}
	return nil
}

// Schemas lists registered schema names.
func (c *Catalog) Schemas() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var names []string
	for n := range c.schMap {
		names = append(names, n)
	}
	return names
}

// Pages returns every page the catalog owns: the meta page plus the name,
// collection, and schema heap chains. The chain walks are fault-tolerant
// (an unreadable chain page is included and truncates that chain), so the
// scrub subsystem can attribute page corruption to the catalog — which it
// refuses to repair automatically.
func (c *Catalog) Pages() []pagestore.PageID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pages := []pagestore.PageID{0}
	for _, t := range []*heap.Table{c.names, c.cols, c.schemas} {
		ps, _ := t.ChainPages()
		pages = append(pages, ps...)
	}
	return pages
}
