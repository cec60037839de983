// Package xpath parses the XPath subset that System R/X evaluates natively
// (§4.2): path expressions over the five forward axes — child, attribute,
// descendant, self, and descendant-or-self — with name and kind tests and
// predicates combining comparisons, nested paths, and and/or/not.
//
// The paper generates its parser with LALR(1) tooling; a hand-written lexer
// and recursive-descent parser produce the identical query-tree IR, which is
// what every downstream component (QuickXScan, index matching) consumes.
package xpath

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Axis is a step's navigation axis.
type Axis uint8

// The five forward axes of §4.2.
const (
	Child Axis = iota + 1
	Attribute
	Descendant
	Self
	DescendantOrSelf
)

var axisNames = map[Axis]string{
	Child:            "child",
	Attribute:        "attribute",
	Descendant:       "descendant",
	Self:             "self",
	DescendantOrSelf: "descendant-or-self",
}

func (a Axis) String() string { return axisNames[a] }

// TestKind is the node test of a step.
type TestKind uint8

const (
	// TestName matches elements (or attributes) by name.
	TestName TestKind = iota + 1
	// TestStar matches any element (or any attribute on the attribute axis).
	TestStar
	// TestText matches text nodes: text().
	TestText
	// TestNode matches any node: node().
	TestNode
	// TestComment matches comment nodes: comment().
	TestComment
)

// Step is one query node of the query tree (Figure 6): an axis, a node
// test, and optional predicates. Steps form a linear spine via Next;
// predicate expressions hang their own paths off the step.
type Step struct {
	Axis   Axis
	Test   TestKind
	Prefix string // namespace prefix as written ("" = no prefix)
	Local  string // local name for TestName
	Preds  []Expr
	Next   *Step
}

// Expr is a predicate expression.
type Expr interface{ isExpr() }

// And is conjunction.
type And struct{ L, R Expr }

// Or is disjunction.
type Or struct{ L, R Expr }

// Not is negation: not(E).
type Not struct{ E Expr }

// Exists tests that a relative path matches at least one node.
type Exists struct{ Path *Step }

// Cmp compares the nodes of a relative path against a literal with
// existential semantics (true if any matched node compares true).
type Cmp struct {
	Path *Step
	Op   CmpOp
	Lit  Literal
}

func (And) isExpr()    {}
func (Or) isExpr()     {}
func (Not) isExpr()    {}
func (Exists) isExpr() {}
func (Cmp) isExpr()    {}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota + 1
	NE
	LT
	LE
	GT
	GE
)

var opNames = map[CmpOp]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (o CmpOp) String() string { return opNames[o] }

// Literal is a string or numeric literal.
type Literal struct {
	IsNum bool
	Num   float64
	Str   string
}

// Query is a parsed path expression.
type Query struct {
	// Steps is the first step of the spine.
	Steps *Step
	// Rooted is true for absolute paths (starting with / or //): evaluation
	// starts at the document node. Relative paths start at a caller-supplied
	// context node.
	Rooted bool
}

// Result returns the spine's final step (whose matches are the result).
func (q *Query) Result() *Step {
	s := q.Steps
	for s != nil && s.Next != nil {
		s = s.Next
	}
	return s
}

// String renders the query in XPath syntax (canonical form).
func (q *Query) String() string {
	var sb strings.Builder
	if !q.Rooted {
		sb.WriteString(".")
	}
	for s := q.Steps; s != nil; s = s.Next {
		writeStep(&sb, s)
	}
	return sb.String()
}

func writeStep(sb *strings.Builder, s *Step) {
	switch s.Axis {
	case Child:
		sb.WriteString("/")
	case Descendant:
		sb.WriteString("//")
	case DescendantOrSelf:
		sb.WriteString("/descendant-or-self::")
	case Attribute:
		sb.WriteString("/@")
	case Self:
		sb.WriteString("/self::")
	}
	switch s.Test {
	case TestName:
		if s.Prefix != "" {
			sb.WriteString(s.Prefix + ":")
		}
		sb.WriteString(s.Local)
	case TestStar:
		sb.WriteString("*")
	case TestText:
		sb.WriteString("text()")
	case TestNode:
		sb.WriteString("node()")
	case TestComment:
		sb.WriteString("comment()")
	}
	for _, p := range s.Preds {
		sb.WriteString("[")
		writeExpr(sb, p)
		sb.WriteString("]")
	}
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case And:
		writeExpr(sb, x.L)
		sb.WriteString(" and ")
		writeExpr(sb, x.R)
	case Or:
		writeExpr(sb, x.L)
		sb.WriteString(" or ")
		writeExpr(sb, x.R)
	case Not:
		sb.WriteString("not(")
		writeExpr(sb, x.E)
		sb.WriteString(")")
	case Exists:
		writePath(sb, x.Path)
	case Cmp:
		writePath(sb, x.Path)
		sb.WriteString(" " + x.Op.String() + " ")
		if x.Lit.IsNum {
			sb.WriteString(strconv.FormatFloat(x.Lit.Num, 'g', -1, 64))
		} else {
			sb.WriteString("'" + x.Lit.Str + "'")
		}
	}
}

func writePath(sb *strings.Builder, s *Step) {
	first := true
	for ; s != nil; s = s.Next {
		if first {
			// Relative path: render leading step without a slash.
			switch s.Axis {
			case Attribute:
				sb.WriteString("@")
			case Descendant, DescendantOrSelf:
				sb.WriteString(".//")
			case Self:
				sb.WriteString(".")
				first = false
				continue
			}
			writeTestOnly(sb, s)
			first = false
			continue
		}
		writeStep(sb, s)
	}
}

func writeTestOnly(sb *strings.Builder, s *Step) {
	switch s.Test {
	case TestName:
		if s.Prefix != "" {
			sb.WriteString(s.Prefix + ":")
		}
		sb.WriteString(s.Local)
	case TestStar:
		sb.WriteString("*")
	case TestText:
		sb.WriteString("text()")
	case TestNode:
		sb.WriteString("node()")
	case TestComment:
		sb.WriteString("comment()")
	}
}

// ParseError reports a syntax error with position.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("xpath: pos %d: %s", e.Pos, e.Msg) }

// Parse parses a path expression.
func Parse(src string) (*Query, error) {
	p := &parser{src: src}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}
	return q, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) eat(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

// query parses an absolute or relative path.
func (p *parser) query() (*Query, error) {
	p.skipSpace()
	q := &Query{}
	var firstAxis Axis
	switch {
	case p.eat("//"):
		q.Rooted = true
		firstAxis = Descendant
	case p.eat("/"):
		q.Rooted = true
		firstAxis = Child
		p.skipSpace()
		if p.pos == len(p.src) {
			return nil, p.errf("bare '/' selects the document; a step is required")
		}
	case p.eat(".//"):
		firstAxis = Descendant
	case p.eat("./"):
		firstAxis = Child
	case p.eat("@"):
		p.pos-- // let step() consume it
		firstAxis = Child
	default:
		firstAxis = Child
	}
	steps, err := p.relPath(firstAxis)
	if err != nil {
		return nil, err
	}
	q.Steps = steps
	return q, nil
}

// relPath parses Step (('/' | '//') Step)*, with the first step using axis.
func (p *parser) relPath(axis Axis) (*Step, error) {
	first, err := p.step(axis)
	if err != nil {
		return nil, err
	}
	cur := first
	for {
		for cur.Next != nil { // a step after // may have come back as two
			cur = cur.Next
		}
		switch {
		case p.eat("//"):
			axis = Descendant
		case p.eat("/"):
			axis = Child
		default:
			return first, nil
		}
		if cur.Next, err = p.step(axis); err != nil {
			return nil, err
		}
	}
}

// step parses one step with the given default axis. "//" abbreviates
// /descendant-or-self::node()/, and only a step that names no axis of its own
// folds that into a plain descendant step: //@k, //self::a and //. come back
// as two steps, the descendant-or-self one first, or the "//" would be lost.
func (p *parser) step(axis Axis) (*Step, error) {
	p.skipSpace()
	s := &Step{Axis: axis}
	// Explicit axes.
	switch {
	case p.eat("@"):
		s.Axis = Attribute
	case p.eat("attribute::"):
		s.Axis = Attribute
	case p.eat("child::"):
		s.Axis = Child
	case p.eat("descendant-or-self::"):
		s.Axis = DescendantOrSelf
	case p.eat("descendant::"):
		s.Axis = Descendant
	case p.eat("self::"):
		s.Axis = Self
	case p.eat("."):
		// Abbreviated self::node().
		s.Axis = Self
		s.Test = TestNode
	}
	// Node test.
	switch {
	case s.Test != 0:
	case p.eat("*"):
		s.Test = TestStar
	case p.eat("text()"):
		s.Test = TestText
	case p.eat("node()"):
		s.Test = TestNode
	case p.eat("comment()"):
		s.Test = TestComment
	default:
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		s.Test = TestName
		if p.pos < len(p.src) && p.src[p.pos] == ':' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ':' {
			p.pos++
			local, err := p.name()
			if err != nil {
				return nil, err
			}
			s.Prefix, s.Local = name, local
		} else {
			s.Local = name
		}
	}
	s, err := p.preds(s)
	if err == nil && axis == Descendant && (s.Axis == Attribute || s.Axis == Child || s.Axis == Self) {
		s = &Step{Axis: DescendantOrSelf, Test: TestNode, Next: s}
	}
	return s, err
}

func (p *parser) preds(s *Step) (*Step, error) {
	for p.eat("[") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.eat("]") {
			return nil, p.errf("expected ']'")
		}
		s.Preds = append(s.Preds, e)
	}
	return s, nil
}

func (p *parser) name() (string, error) {
	p.skipSpace()
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected name")
	}
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("and") {
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

// eatKeyword consumes a keyword only when followed by a non-name character.
func (p *parser) eatKeyword(kw string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], kw) {
		return false
	}
	after := p.pos + len(kw)
	if after < len(p.src) && isNameChar(p.src[after]) {
		return false
	}
	p.pos = after
	return true
}

func (p *parser) unaryExpr() (Expr, error) {
	p.skipSpace()
	if p.eatKeyword("not") {
		if !p.eat("(") {
			return nil, p.errf("expected '(' after not")
		}
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errf("expected ')'")
		}
		return Not{E: e}, nil
	}
	if p.eat("(") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errf("expected ')'")
		}
		return e, nil
	}
	return p.comparison()
}

// comparison parses a relative path optionally compared to a literal.
func (p *parser) comparison() (Expr, error) {
	path, err := p.predPath()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	var op CmpOp
	switch {
	case p.eat("!="):
		op = NE
	case p.eat("<="):
		op = LE
	case p.eat(">="):
		op = GE
	case p.eat("="):
		op = EQ
	case p.eat("<"):
		op = LT
	case p.eat(">"):
		op = GT
	default:
		return Exists{Path: path}, nil
	}
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	return Cmp{Path: path, Op: op, Lit: lit}, nil
}

// predPath parses a relative path inside a predicate: it may start with
// '.', './/', '@', '//' (treated as .//) or a name.
func (p *parser) predPath() (*Step, error) {
	p.skipSpace()
	switch {
	case p.eat(".//"):
		return p.relPath(Descendant)
	case p.eat("./"):
		return p.relPath(Child)
	case p.eat("."):
		// self path: value of the current node.
		s := &Step{Axis: Self, Test: TestNode}
		// allow ". = lit" or "./child" handled above; a bare '.' path.
		return s, nil
	case p.eat("//"):
		return p.relPath(Descendant)
	case p.eat("@"):
		p.pos--
		return p.relPath(Child) // step() sees '@' and sets the attribute axis
	default:
		return p.relPath(Child)
	}
}

func (p *parser) literal() (Literal, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return Literal{}, p.errf("expected literal")
	}
	c := p.src[p.pos]
	if c == '\'' || c == '"' {
		q := c
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != q {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return Literal{}, p.errf("unterminated string literal")
		}
		s := p.src[start:p.pos]
		p.pos++
		return Literal{Str: s}, nil
	}
	start := p.pos
	if c == '-' || c == '+' {
		p.pos++
	}
	for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
		p.pos++
	}
	if p.pos == start {
		return Literal{}, p.errf("expected literal")
	}
	n, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return Literal{}, p.errf("bad number %q", p.src[start:p.pos])
	}
	return Literal{IsNum: true, Num: n}, nil
}

// ErrUnsupported marks XPath features outside the supported subset.
var ErrUnsupported = errors.New("xpath: unsupported construct")

// HasPredicates reports whether any step of the query carries predicates.
func (q *Query) HasPredicates() bool {
	for s := q.Steps; s != nil; s = s.Next {
		if len(s.Preds) > 0 {
			return true
		}
	}
	return false
}

// Covers reports whether the index path (a simple path without predicates)
// matches a superset of the nodes matched by the query path's spine: the
// §4.3 containment test that decides whether a value index is usable for
// filtering. The test is conservative: false negatives only cost an index
// opportunity, never correctness.
func Covers(index, query *Query) bool {
	if !index.Rooted || !query.Rooted {
		return false
	}
	// The planner asks this per index and conjunct on every execution, so
	// the steps and the memo live on the stack for paths of usual length.
	var ibuf, qbuf [16]*Step
	var mbuf [256]int8
	d := coverDP{is: ibuf[:0], qs: qbuf[:0]}
	for s := index.Steps; s != nil; s = s.Next {
		if len(s.Preds) > 0 {
			return false
		}
		d.is = append(d.is, s)
	}
	for s := query.Steps; s != nil; s = s.Next {
		d.qs = append(d.qs, s)
	}
	if n := len(d.is) * len(d.qs); n <= len(mbuf) {
		d.memo = mbuf[:n]
	} else {
		d.memo = make([]int8, n)
	}
	return d.covers(0, 0)
}

// coverDP decides whether the index pattern is can match every concrete path
// that the query qs describes: a conservative DP over step alignment,
// memoized on (i, j) for i < len(is), j < len(qs) (0 unknown, 1 false,
// 2 true).
type coverDP struct {
	is, qs []*Step
	memo   []int8
}

func (d *coverDP) covers(i, j int) bool {
	switch {
	case i == len(d.is):
		return j == len(d.qs)
	case j == len(d.qs):
		return false
	}
	k := i*len(d.qs) + j
	if v := d.memo[k]; v != 0 {
		return v == 2
	}
	res := false
	is, qs := d.is[i], d.qs[j]
	if stepTestCovers(is, qs) {
		switch is.Axis {
		case Child, Attribute:
			// Must match exactly here; the query step must also be a
			// direct step (a query descendant step could skip levels
			// the index insists on).
			if qs.Axis == Child || qs.Axis == Attribute {
				res = d.covers(i+1, j+1)
			}
		case Descendant, DescendantOrSelf:
			// The index's // can absorb any number of intervening
			// query levels, or match here.
			res = d.covers(i+1, j+1) || d.covers(i, j+1)
		}
	} else if is.Axis == Descendant || is.Axis == DescendantOrSelf {
		// Skip a query level under the index's descendant step, but
		// only when the query level is a concrete child step (a
		// query // here makes containment undecidable for this
		// conservative test).
		if qs.Axis == Child {
			res = d.covers(i, j+1)
		}
	}
	d.memo[k] = 1
	if res {
		d.memo[k] = 2
	}
	return res
}

// stepTestCovers reports whether the index step's node test matches at least
// everything the query step's test matches, for steps at the same level.
func stepTestCovers(is, qs *Step) bool {
	if (is.Axis == Attribute) != (qs.Axis == Attribute) {
		return false
	}
	switch is.Test {
	case TestStar, TestNode:
		return true
	case TestName:
		return qs.Test == TestName && is.Local == qs.Local && is.Prefix == qs.Prefix
	case TestText:
		return qs.Test == TestText
	case TestComment:
		return qs.Test == TestComment
	}
	return false
}

// Equivalent reports whether two predicate-free rooted paths match exactly
// the same nodes (mutual coverage) — the §4.3 "exact match" condition for
// DocID/NodeID list access.
func Equivalent(a, b *Query) bool { return Covers(a, b) && Covers(b, a) }
