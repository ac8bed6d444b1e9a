// Package sqlparse is a small SQL front end for the examples and CLI: it
// parses SELECT ... FROM ... [WHERE ...] [ORDER BY ...] into the optimizer's
// query graph. Joins are expressed as conjunctive WHERE predicates, as in
// the paper's era. The dialect is deliberately small — the reproduction's
// subject is the optimizer, not the parser — but it is a real
// recursive-descent parser with name resolution against the catalog.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"stars/internal/catalog"
	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/query"
)

// Parse parses one SELECT statement and resolves it against the catalog,
// returning the validated query graph.
func Parse(sql string, cat *catalog.Catalog) (*query.Graph, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat}
	g, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("sql: unexpected %q after statement", p.cur().text)
	}
	if err := g.Validate(cat); err != nil {
		return nil, err
	}
	return g, nil
}

type tkind uint8

const (
	tEOF tkind = iota
	tIdent
	tNumber
	tString
	tPunct // ( ) , . * = <> < <= > >= + - /
)

type tok struct {
	kind tkind
	text string
	num  float64
}

func lex(src string) ([]tok, error) {
	var out []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			out = append(out, tok{kind: tIdent, text: src[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			n, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", src[i:j])
			}
			out = append(out, tok{kind: tNumber, text: src[i:j], num: n})
			i = j
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sql: unterminated string literal")
			}
			out = append(out, tok{kind: tString, text: src[i+1 : j]})
			i = j + 1
		case strings.ContainsRune("(),.*=+-/", rune(c)):
			out = append(out, tok{kind: tPunct, text: string(c)})
			i++
		case c == '<':
			if i+1 < len(src) && (src[i+1] == '=' || src[i+1] == '>') {
				out = append(out, tok{kind: tPunct, text: src[i : i+2]})
				i += 2
			} else {
				out = append(out, tok{kind: tPunct, text: "<"})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				out = append(out, tok{kind: tPunct, text: ">="})
				i += 2
			} else {
				out = append(out, tok{kind: tPunct, text: ">"})
				i++
			}
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				out = append(out, tok{kind: tPunct, text: "<>"})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!'")
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q", string(c))
		}
	}
	out = append(out, tok{kind: tEOF})
	return out, nil
}

type parser struct {
	toks []tok
	pos  int
	cat  *catalog.Catalog
	// g carries the FROM list while the rest of the statement resolves
	// names against it; parseSelect returns the graph built from it.
	g *query.Graph
}

func (p *parser) cur() tok { return p.toks[p.pos] }

func (p *parser) next() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

// kw consumes a case-insensitive keyword.
func (p *parser) kw(word string) bool {
	if p.cur().kind == tIdent && strings.EqualFold(p.cur().text, word) {
		p.next()
		return true
	}
	return false
}

func (p *parser) punct(s string) bool {
	if p.cur().kind == tPunct && p.cur().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) ident(what string) (string, error) {
	t := p.cur()
	if t.kind != tIdent {
		return "", fmt.Errorf("sql: expected %s, found %q", what, t.text)
	}
	p.next()
	return t.text, nil
}

// selectItem is a parsed projection entry, resolved after FROM is known.
type selectItem struct {
	table string // "" = unqualified
	col   string
	star  bool
}

func (p *parser) parseSelect() (*query.Graph, error) {
	if !p.kw("SELECT") {
		return nil, fmt.Errorf("sql: expected SELECT")
	}
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.punct(",") {
			break
		}
	}
	if !p.kw("FROM") {
		return nil, fmt.Errorf("sql: expected FROM")
	}
	p.g = &query.Graph{}
	for {
		table, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		alias := table
		if p.kw("AS") {
			alias, err = p.ident("alias")
			if err != nil {
				return nil, err
			}
		} else if p.cur().kind == tIdent && !isKeyword(p.cur().text) {
			alias = p.next().text
		}
		p.g.Quants = append(p.g.Quants, query.Quantifier{Name: alias, Table: table})
		if !p.punct(",") {
			break
		}
	}
	var preds []expr.Expr
	if p.kw("WHERE") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			preds = append(preds, pred)
			if !p.kw("AND") {
				break
			}
		}
	}
	if p.kw("ORDER") {
		if !p.kw("BY") {
			return nil, fmt.Errorf("sql: expected BY after ORDER")
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			p.g.OrderBy = append(p.g.OrderBy, c)
			if !p.punct(",") {
				break
			}
		}
	}
	// Resolve the projection now that quantifiers are known.
	for _, item := range items {
		switch {
		case item.star && item.table == "":
			// SELECT *: empty Select means every column.
			if len(items) > 1 {
				return nil, fmt.Errorf("sql: '*' cannot be combined with other select items")
			}
		case item.star:
			q := p.g.Quant(item.table)
			if q == nil {
				return nil, fmt.Errorf("sql: unknown quantifier %q", item.table)
			}
			t := p.cat.Table(q.Table)
			if t == nil {
				continue // Validate reports the unknown table
			}
			for _, c := range t.Cols {
				p.g.Select = append(p.g.Select, expr.ColID{Table: q.Name, Col: c.Name})
			}
		default:
			c, err := p.resolveCol(item.table, item.col)
			if err != nil {
				return nil, err
			}
			p.g.Select = append(p.g.Select, c)
		}
	}
	// Both lists are final: fix the query's universe.
	g, err := query.New(p.g.Quants, preds...)
	if err != nil {
		return nil, err
	}
	g.Select, g.OrderBy = p.g.Select, p.g.OrderBy
	return g, nil
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "ORDER", "BY", "AND", "FROM", "SELECT", "AS":
		return true
	}
	return false
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.punct("*") {
		return selectItem{star: true}, nil
	}
	name, err := p.ident("column")
	if err != nil {
		return selectItem{}, err
	}
	if p.punct(".") {
		if p.punct("*") {
			return selectItem{table: name, star: true}, nil
		}
		col, err := p.ident("column")
		if err != nil {
			return selectItem{}, err
		}
		return selectItem{table: name, col: col}, nil
	}
	return selectItem{col: name}, nil
}

// parseColRef parses table.col or an unqualified col and resolves it.
func (p *parser) parseColRef() (expr.ColID, error) {
	name, err := p.ident("column")
	if err != nil {
		return expr.ColID{}, err
	}
	if p.punct(".") {
		col, err := p.ident("column")
		if err != nil {
			return expr.ColID{}, err
		}
		return p.resolveCol(name, col)
	}
	return p.resolveCol("", name)
}

// resolveCol resolves a possibly-unqualified column against the FROM list.
func (p *parser) resolveCol(table, col string) (expr.ColID, error) {
	if table != "" {
		q := p.g.Quant(table)
		if q == nil {
			return expr.ColID{}, fmt.Errorf("sql: unknown quantifier %q", table)
		}
		return expr.ColID{Table: table, Col: col}, nil
	}
	var found []expr.ColID
	for _, q := range p.g.Quants {
		t := p.cat.Table(q.Table)
		if t != nil && t.Column(col) != nil {
			found = append(found, expr.ColID{Table: q.Name, Col: col})
		}
	}
	switch len(found) {
	case 0:
		return expr.ColID{}, fmt.Errorf("sql: column %q not found in any FROM table", col)
	case 1:
		return found[0], nil
	default:
		return expr.ColID{}, fmt.Errorf("sql: column %q is ambiguous", col)
	}
}

func (p *parser) parsePred() (expr.Expr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	var op expr.CmpOp
	switch t.text {
	case "=":
		op = expr.EQ
	case "<>":
		op = expr.NE
	case "<":
		op = expr.LT
	case "<=":
		op = expr.LE
	case ">":
		op = expr.GT
	case ">=":
		op = expr.GE
	default:
		return nil, fmt.Errorf("sql: expected comparison operator, found %q", t.text)
	}
	p.next()
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &expr.Cmp{Op: op, L: l, R: r}, nil
}

// parseOperand parses an additive arithmetic expression over columns and
// literals.
func (p *parser) parseOperand() (expr.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch p.cur().text {
		case "+":
			op = expr.Add
		case "-":
			op = expr.Sub
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseTerm() (expr.Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch p.cur().text {
		case "*":
			op = expr.Mul
		case "/":
			op = expr.Div
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseFactor() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tNumber:
		p.next()
		if t.num == float64(int64(t.num)) && !strings.Contains(t.text, ".") {
			return &expr.Const{Val: datum.NewInt(int64(t.num))}, nil
		}
		return &expr.Const{Val: datum.NewFloat(t.num)}, nil
	case t.kind == tString:
		p.next()
		return &expr.Const{Val: datum.NewString(t.text)}, nil
	case t.kind == tPunct && t.text == "(":
		p.next()
		e, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if !p.punct(")") {
			return nil, fmt.Errorf("sql: expected ')'")
		}
		return e, nil
	case t.kind == tIdent:
		c, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		return &expr.Col{ID: c}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %q in expression", t.text)
	}
}
