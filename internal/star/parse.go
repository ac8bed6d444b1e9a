package star

import (
	"fmt"
)

// ParseRules parses rule-file text into a RuleSet. Diagnostics and AST
// positions carry line:col but no file name; use ParseFile to attribute a
// named source.
func ParseRules(src string) (*RuleSet, error) { return ParseFile(src, "") }

// ParseFile parses rule-file text into a RuleSet, attributing every position
// (AST nodes, parse errors) to the given file name.
//
// The concrete syntax (whitespace-insensitive; `#` comments document the
// following rule):
//
//	star Name(P1, P2) = body
//	star Name(P1, P2) = [ | alt | alt if cond ] where N = expr ...
//	star Name(P1, P2) = { | alt if cond | alt otherwise }
//
// `[ ... ]` holds inclusive alternatives (all whose conditions hold fire);
// `{ ... }` holds exclusive alternatives (the first whose condition holds
// fires); a bare body is a single unconditional alternative. Within an
// alternative, `forall v in set: body` maps over a list, and stream
// arguments may carry required-property annotations `T[site = s, temp]`.
// `{}` is the empty predicate set (the paper's φ) and `*` means "all
// columns".
func ParseFile(src, file string) (*RuleSet, error) {
	toks, err := newLexer(src, file).lexAll()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, file: file}
	rs := NewRuleSet()
	for !p.atEOF() {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rs.addRecordingRedefinition(r)
	}
	return rs, nil
}

type parser struct {
	toks []token
	pos  int
	file string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

// at converts a token's position into a Pos carrying the source file name.
func (p *parser) at(t token) Pos { return Pos{File: p.file, Line: t.line, Col: t.col} }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekIs(kind tokKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return t, fmt.Errorf("star: %s: expected %s, found %s", p.at(t), what, t)
	}
	return p.next(), nil
}

func (p *parser) keyword(kw string) bool {
	if p.cur().kind == tokIdent && p.cur().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseRule() (*Rule, error) {
	t := p.cur()
	if !p.keyword("star") {
		return nil, fmt.Errorf("star: %s: expected 'star', found %s", p.at(t), t)
	}
	doc := t.doc
	nameTok, err := p.expect(tokIdent, "rule name")
	if err != nil {
		return nil, err
	}
	if keywords[nameTok.text] {
		return nil, fmt.Errorf("star: %s: %q is a reserved word", p.at(nameTok), nameTok.text)
	}
	r := &Rule{Name: nameTok.text, Doc: doc, Pos: p.at(nameTok)}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	for !p.peekIs(tokRParen, "") {
		pt, err := p.expect(tokIdent, "parameter name")
		if err != nil {
			return nil, err
		}
		r.Params = append(r.Params, pt.text)
		if !p.peekIs(tokComma, "") {
			break
		}
		p.next()
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEquals, "'='"); err != nil {
		return nil, err
	}
	if err := p.parseBody(r); err != nil {
		return nil, err
	}
	if p.keyword("where") {
		if err := p.parseWhere(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (p *parser) parseBody(r *Rule) error {
	var closer tokKind
	switch {
	case p.peekIs(tokLBracket, ""):
		// `[` could open an alternatives block or be nothing else in body
		// position; blocks it is.
		p.next()
		closer = tokRBracket
		r.Exclusive = false
	case p.peekIs(tokLBrace, "") && p.toks[p.pos+1].kind != tokRBrace:
		p.next()
		closer = tokRBrace
		r.Exclusive = true
	default:
		// Single unconditional alternative.
		altPos := p.at(p.cur())
		body, err := p.parseAltExpr()
		if err != nil {
			return err
		}
		alt := &Alt{Body: body, Pos: altPos}
		if err := p.parseGuard(alt); err != nil {
			return err
		}
		r.Alts = []*Alt{alt}
		return nil
	}
	for {
		if p.cur().kind == closer {
			p.next()
			break
		}
		if !p.peekIs(tokPipe, "") {
			return fmt.Errorf("star: %s: expected '|' or block close in %s, found %s", p.at(p.cur()), r.Name, p.cur())
		}
		p.next()
		altPos := p.at(p.cur())
		body, err := p.parseAltExpr()
		if err != nil {
			return err
		}
		alt := &Alt{Body: body, Pos: altPos}
		if err := p.parseGuard(alt); err != nil {
			return err
		}
		r.Alts = append(r.Alts, alt)
	}
	if len(r.Alts) == 0 {
		return fmt.Errorf("star: %s: rule %s has no alternatives", r.Pos, r.Name)
	}
	return nil
}

func (p *parser) parseGuard(alt *Alt) error {
	switch {
	case p.keyword("if"):
		cond, err := p.parseOr()
		if err != nil {
			return err
		}
		alt.Cond = cond
	case p.keyword("otherwise"):
		alt.Otherwise = true
	}
	return nil
}

func (p *parser) parseWhere(r *Rule) error {
	for {
		// A binding begins with IDENT '=': two-token lookahead.
		if p.cur().kind != tokIdent || keywords[p.cur().text] || p.toks[p.pos+1].kind != tokEquals {
			if len(r.Where) == 0 {
				return fmt.Errorf("star: %s: expected binding after 'where'", p.at(p.cur()))
			}
			return nil
		}
		nameTok := p.next()
		p.next() // '='
		e, err := p.parseOr()
		if err != nil {
			return err
		}
		r.Where = append(r.Where, Let{Name: nameTok.text, Expr: e, Pos: p.at(nameTok)})
	}
}

// parseAltExpr parses an alternative body: a forall clause or an expression.
func (p *parser) parseAltExpr() (RExpr, error) {
	faTok := p.cur()
	if p.keyword("forall") {
		v, err := p.expect(tokIdent, "loop variable")
		if err != nil {
			return nil, err
		}
		if !p.keyword("in") {
			return nil, fmt.Errorf("star: %s: expected 'in' after forall variable", p.at(p.cur()))
		}
		set, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		body, err := p.parseAltExpr()
		if err != nil {
			return nil, err
		}
		fa := &Forall{Var: v.text, Set: set, Body: body, Pos: p.at(faTok)}
		// An `if` directly after a forall body guards each element (it may
		// reference the loop variable); `otherwise` still belongs to the
		// enclosing alternative.
		if p.keyword("if") {
			cond, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			fa.Cond = cond
		}
		return fa, nil
	}
	return p.parseOr()
}

func (p *parser) parseOr() (RExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.peekIs(tokIdent, "or") {
		return left, nil
	}
	kids := []RExpr{left}
	for p.keyword("or") {
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return &Logic{OpAnd: false, Kids: kids}, nil
}

func (p *parser) parseAnd() (RExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if !p.peekIs(tokIdent, "and") {
		return left, nil
	}
	kids := []RExpr{left}
	for p.keyword("and") {
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return &Logic{OpAnd: true, Kids: kids}, nil
}

func (p *parser) parseUnary() (RExpr, error) {
	if p.keyword("not") {
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Kid: k}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (RExpr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(tokLBracket, "") {
		p.next()
		a := &Annot{Kid: e}
		for {
			key, err := p.expect(tokIdent, "requirement name")
			if err != nil {
				return nil, err
			}
			item := ReqItem{Key: key.text, Pos: p.at(key)}
			if p.peekIs(tokEquals, "") {
				p.next()
				v, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				item.Val = v
			}
			a.Reqs = append(a.Reqs, item)
			if !p.peekIs(tokComma, "") {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		e = a
	}
	return e, nil
}

func (p *parser) parsePrimary() (RExpr, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		if keywords[t.text] && t.text != "forall" {
			return nil, fmt.Errorf("star: %s: unexpected keyword %q", p.at(t), t.text)
		}
		p.next()
		if !p.peekIs(tokLParen, "") {
			return &Ident{Name: t.text, Pos: p.at(t), Slot: -1}, nil
		}
		p.next()
		c := &Call{Name: t.text, Pos: p.at(t)}
		for !p.peekIs(tokRParen, "") {
			a, err := p.parseAltExpr()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, a)
			if !p.peekIs(tokComma, "") {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return c, nil
	case tokString:
		p.next()
		return &StrLit{Val: t.text}, nil
	case tokNumber:
		p.next()
		return &NumLit{Val: t.num}, nil
	case tokLBrace:
		p.next()
		if _, err := p.expect(tokRBrace, "'}' (empty set)"); err != nil {
			return nil, err
		}
		return &EmptySet{}, nil
	case tokStar:
		p.next()
		return &AllCols{}, nil
	case tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("star: %s: unexpected %s", p.at(t), t)
	}
}
