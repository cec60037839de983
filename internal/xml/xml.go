// Package xml defines the XQuery data model types shared across the engine:
// the seven node kinds, qualified names, and the dictionary-encoded name IDs
// used throughout stored XML data (System R/X §3.1: "all the names for
// elements, attributes, and namespaces are encoded using integers across the
// entire database").
package xml

import "fmt"

// Kind enumerates the seven node kinds of the XQuery data model, plus the
// storage-only Proxy kind used by the tree-packing scheme (§3.1) to stand in
// for a subtree packed into a separate record.
type Kind uint8

const (
	Document Kind = iota + 1
	Element
	Attribute
	Text
	Namespace
	ProcessingInstruction
	Comment
	// Proxy is not an XQuery node kind: it marks, inside a packed record, a
	// subtree that was packed into a different record.
	Proxy
)

var kindNames = [...]string{
	Document:              "document",
	Element:               "element",
	Attribute:             "attribute",
	Text:                  "text",
	Namespace:             "namespace",
	ProcessingInstruction: "processing-instruction",
	Comment:               "comment",
	Proxy:                 "proxy",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NameID is the integer encoding of an element/attribute local name or a
// namespace URI in the database-wide name dictionary.
type NameID uint32

// NoName is the NameID used for unnamed nodes (text, comment, document).
const NoName NameID = 0

// SigBit is local's bit in an element-name signature: a 64-bit summary of a
// set of element names with bit local%64 set for each. A document whose
// signature lacks a bit holds no element of that local name.
func SigBit(local NameID) uint64 { return 1 << (local % 64) }

// QName is a fully resolved qualified name: a namespace URI ID plus a local
// name ID. The prefix is not part of node identity (prefixes are resolved at
// parse time, per §3.2).
type QName struct {
	URI   NameID
	Local NameID
}

func (q QName) String() string {
	if q.URI == NoName {
		return fmt.Sprintf("n%d", q.Local)
	}
	return fmt.Sprintf("u%d:n%d", q.URI, q.Local)
}

// TypeID annotates schema-validated nodes with their simple type (§3.2:
// "optionally with type annotation if a document is Schema-validated").
type TypeID uint16

// Built-in type annotations. Untyped is used by non-validating parses.
const (
	Untyped TypeID = iota
	TString
	TDouble
	TDecimal
	TInteger
	TBoolean
	TDate
)

var typeNames = [...]string{
	Untyped:  "untyped",
	TString:  "string",
	TDouble:  "double",
	TDecimal: "decimal",
	TInteger: "integer",
	TBoolean: "boolean",
	TDate:    "date",
}

func (t TypeID) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint16(t))
}

// DocID identifies a document within a collection. DocIDs are assigned by the
// base table's implicit DocID column (§3.1, Figure 2).
type DocID uint64
