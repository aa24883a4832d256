package rules

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file parses the .prl rule language, a faithful subset of the Drools
// .drl syntax used in the paper's Fig. 2:
//
//	rule "Stalls per Cycle"
//	salience 10
//	when
//	    f : MeanEventFact ( m : metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
//	                        higherLower == HIGHER,
//	                        s : severity > 0.10,
//	                        e : eventName,
//	                        factType == "Compared to Main" )
//	    not Suppression ( eventName == e )
//	then
//	    println("Event " + e + " has a higher than average stall / cycle rate")
//	    recommend("memory", "focus optimization on event " + e)
//	    assert Diagnosis ( eventName = e, problem = "stalls" )
//	end
//
// Comments run from "//" or "#" to end of line.

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct // ( ) , : .
	tokOp    // == != <= >= < > + - * / =
)

type token struct {
	kind tokKind
	text string
	num  float64
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		case c == '#':
			l.skipLine()
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			if !l.lexOpOrPunct() {
				return nil, fmt.Errorf("rules: line %d: unexpected character %q", l.line, string(c))
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, line: l.line})
	return l.toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				sb.WriteByte(next)
			}
			l.pos += 2
			continue
		}
		if c == '"' {
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), line: l.line})
			return nil
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		l.pos++
	}
	_ = start
	return fmt.Errorf("rules: line %d: unterminated string", l.line)
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' ||
		l.src[l.pos] == 'E' || ((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
		l.pos++
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		// Trailing '.' etc: back off one.
		text = strings.TrimRight(text, ".eE+-")
		l.pos = start + len(text)
		n, _ = strconv.ParseFloat(text, 64)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: text, num: n, line: l.line})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], line: l.line})
}

func (l *lexer) lexOpOrPunct() bool {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=":
		l.toks = append(l.toks, token{kind: tokOp, text: two, line: l.line})
		l.pos += 2
		return true
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ':', '.':
		l.toks = append(l.toks, token{kind: tokPunct, text: string(c), line: l.line})
	case '<', '>', '+', '-', '*', '/', '=':
		l.toks = append(l.toks, token{kind: tokOp, text: string(c), line: l.line})
	default:
		return false
	}
	l.pos++
	return true
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return fmt.Errorf("rules: line %d: expected %q, got %q", t.line, word, t.text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if (t.kind != tokPunct && t.kind != tokOp) || t.text != s {
		return fmt.Errorf("rules: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) atIdent(word string) bool {
	return p.cur().kind == tokIdent && p.cur().text == word
}

// Parse parses .prl source into rules.
func Parse(src string) ([]Rule, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Rule
	for p.cur().kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rules: no rules found in source")
	}
	return out, nil
}

// LoadString parses src and adds the rules to the engine.
func (e *Engine) LoadString(src string) error {
	rs, err := Parse(src)
	if err != nil {
		return err
	}
	for _, r := range rs {
		e.AddRule(r)
	}
	return nil
}

func (p *parser) parseRule() (Rule, error) {
	var r Rule
	if err := p.expectIdent("rule"); err != nil {
		return r, err
	}
	name := p.next()
	if name.kind != tokString {
		return r, fmt.Errorf("rules: line %d: rule name must be a string, got %q", name.line, name.text)
	}
	r.Name = name.text
	if p.atIdent("salience") {
		p.next()
		neg := false
		if p.cur().kind == tokOp && p.cur().text == "-" {
			neg = true
			p.next()
		}
		t := p.next()
		if t.kind != tokNumber {
			return r, fmt.Errorf("rules: line %d: salience must be a number", t.line)
		}
		r.Salience = int(t.num)
		if neg {
			r.Salience = -r.Salience
		}
	}
	if err := p.expectIdent("when"); err != nil {
		return r, err
	}
	for !p.atIdent("then") {
		if p.cur().kind == tokEOF {
			return r, fmt.Errorf("rules: rule %q: missing 'then'", r.Name)
		}
		pat, err := p.parsePattern()
		if err != nil {
			return r, fmt.Errorf("rules: rule %q: %w", r.Name, err)
		}
		r.Patterns = append(r.Patterns, pat)
	}
	p.next() // then
	for !p.atIdent("end") {
		if p.cur().kind == tokEOF {
			return r, fmt.Errorf("rules: rule %q: missing 'end'", r.Name)
		}
		c, err := p.parseConsequence()
		if err != nil {
			return r, fmt.Errorf("rules: rule %q: %w", r.Name, err)
		}
		r.Consequences = append(r.Consequences, c)
	}
	p.next() // end
	return r, nil
}

func (p *parser) parsePattern() (Pattern, error) {
	var pat Pattern
	if p.atIdent("not") {
		pat.Negated = true
		p.next()
	} else if p.atIdent("exists") {
		pat.Exists = true
		p.next()
	}
	first := p.next()
	if first.kind != tokIdent {
		return pat, fmt.Errorf("line %d: expected pattern, got %q", first.line, first.text)
	}
	if p.cur().kind == tokPunct && p.cur().text == ":" {
		p.next()
		typ := p.next()
		if typ.kind != tokIdent {
			return pat, fmt.Errorf("line %d: expected fact type after binding", typ.line)
		}
		pat.Binding = first.text
		pat.Type = typ.text
	} else {
		pat.Type = first.text
	}
	if err := p.expectPunct("("); err != nil {
		return pat, err
	}
	for !(p.cur().kind == tokPunct && p.cur().text == ")") {
		c, err := p.parseConstraint()
		if err != nil {
			return pat, err
		}
		pat.Constraints = append(pat.Constraints, c)
		if p.cur().kind == tokPunct && p.cur().text == "," {
			p.next()
		}
	}
	p.next() // )
	return pat, nil
}

func (p *parser) parseConstraint() (Constraint, error) {
	var c Constraint
	first := p.next()
	if first.kind != tokIdent {
		return c, fmt.Errorf("line %d: expected field or binding, got %q", first.line, first.text)
	}
	if p.cur().kind == tokPunct && p.cur().text == ":" {
		p.next()
		field := p.next()
		if field.kind != tokIdent {
			return c, fmt.Errorf("line %d: expected field after binding %q", field.line, first.text)
		}
		c.BindVar = first.text
		c.Field = field.text
	} else {
		c.Field = first.text
	}
	// Optional comparison.
	if p.cur().kind == tokOp || (p.cur().kind == tokIdent && p.cur().text == "contains") {
		op := p.next().text
		switch op {
		case "==", "!=", "<", ">", "<=", ">=", "contains":
		default:
			return c, fmt.Errorf("unsupported constraint operator %q", op)
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return c, err
		}
		c.Op = op
		c.RHS = rhs
	}
	return c, nil
}

func (p *parser) parseConsequence() (Consequence, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("line %d: expected consequence, got %q", t.line, t.text)
	}
	switch t.text {
	case "println":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return Println{Arg: arg}, nil
	case "recommend":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cat, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		text, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return Recommend{Category: cat, Text: text}, nil
	case "assert":
		typ := p.next()
		if typ.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected fact type after assert", typ.line)
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		fields := make(map[string]Expr)
		for !(p.cur().kind == tokPunct && p.cur().text == ")") {
			name := p.next()
			if name.kind != tokIdent {
				return nil, fmt.Errorf("line %d: expected field name", name.line)
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fields[name.text] = val
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.next()
			}
		}
		p.next() // )
		return AssertFact{Type: typ.text, Fields: fields}, nil
	case "retract":
		b := p.next()
		if b.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected binding after retract", b.line)
		}
		return RetractFact{Binding: b.text}, nil
	}
	return nil, fmt.Errorf("line %d: unknown consequence %q", t.line, t.text)
}

// parseExpr: additive over multiplicative over primary.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.next().text
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.next().text
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return Lit{V: t.num}, nil
	case t.kind == tokString:
		return Lit{V: t.text}, nil
	case t.kind == tokOp && t.text == "-":
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Binary{Op: "-", L: Lit{V: 0.0}, R: inner}, nil
	case t.kind == tokPunct && t.text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if p.cur().kind == tokPunct && p.cur().text == "." {
			p.next()
			field := p.next()
			if field.kind != tokIdent {
				return nil, fmt.Errorf("line %d: expected field after %q.", field.line, t.text)
			}
			return FieldRef{Binding: t.text, Field: field.text}, nil
		}
		return VarRef{Name: t.text}, nil
	}
	return nil, fmt.Errorf("line %d: unexpected token %q in expression", t.line, t.text)
}
