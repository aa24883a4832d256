// Package script implements the analysis scripting language of
// PerfExplorer 2.0 — the role Jython plays in the paper. It is a small,
// dynamically typed language with numbers, strings, booleans, lists, maps,
// user functions and host objects; the PerfExplorer API (trials, derived
// metrics, rule harness, utilities) is bound in by the embedding package,
// so analysis processes are captured as reusable scripts like Fig. 1.
//
// Syntax is expression-oriented with C-style blocks:
//
//	harness = RuleHarness("OpenUHRules.prl")
//	trial = Utilities.getTrial("Fluid Dynamic", "rib 90", "1_16")
//	derived = trial.deriveMetric("BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/")
//	for event in derived.events {
//	    MeanEventFact.compareEventToMain(derived, "(BACK_END_BUBBLE_ALL / CPU_CYCLES)", event)
//	}
//	harness.processRules()
//
// Statements end at newline or ';'. Comments run from '#' to end of line.
package script

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tIdent
	tNumber
	tString
	tOp      // operators and punctuation
	tKeyword // if else elif for in while func return break continue and or not true false nil print
)

var keywords = map[string]bool{
	"if": true, "else": true, "elif": true, "for": true, "in": true,
	"while": true, "func": true, "return": true, "break": true,
	"continue": true, "and": true, "or": true, "not": true,
	"true": true, "false": true, "nil": true,
}

type token struct {
	kind tokKind
	text string
	num  float64
	line int
	col  int // 1-based column of the token's first character
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of script"
	case tNewline:
		return "newline"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type scriptLexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
	toks      []token
}

// col returns the 1-based column of byte offset pos on the current line.
func (l *scriptLexer) col(pos int) int { return pos - l.lineStart + 1 }

func lexScript(src string) ([]token, error) {
	l := &scriptLexer{src: src, line: 1}
	parenDepth := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			// Newlines are statement terminators only outside brackets.
			if parenDepth == 0 {
				l.emit(token{kind: tNewline, text: "\\n", line: l.line, col: l.col(l.pos)})
			}
			l.line++
			l.pos++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '"' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '"' && l.src[l.pos+2] == '"':
			if err := l.lexTripleString(); err != nil {
				return nil, err
			}
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case isScriptIdentStart(c):
			l.lexIdent()
		default:
			ok, delta := l.lexOp()
			if !ok {
				return nil, fmt.Errorf("script: line %d: unexpected character %q", l.line, string(c))
			}
			parenDepth += delta
			if parenDepth < 0 {
				return nil, fmt.Errorf("script: line %d: unbalanced closing bracket", l.line)
			}
		}
	}
	l.emit(token{kind: tNewline, text: "\\n", line: l.line, col: l.col(l.pos)})
	l.emit(token{kind: tEOF, line: l.line, col: l.col(l.pos)})
	return l.toks, nil
}

func (l *scriptLexer) emit(t token) {
	// Collapse consecutive newlines.
	if t.kind == tNewline && len(l.toks) > 0 && l.toks[len(l.toks)-1].kind == tNewline {
		return
	}
	l.toks = append(l.toks, t)
}

func isScriptIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isScriptIdentChar(c byte) bool {
	return isScriptIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *scriptLexer) lexString(quote byte) error {
	startCol := l.col(l.pos)
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			switch l.src[l.pos+1] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\':
				sb.WriteByte('\\')
			case quote:
				sb.WriteByte(quote)
			default:
				sb.WriteByte(l.src[l.pos+1])
			}
			l.pos += 2
			continue
		}
		if c == quote {
			l.pos++
			l.emit(token{kind: tString, text: sb.String(), line: l.line, col: startCol})
			return nil
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("script: line %d: unterminated string", l.line)
}

// lexTripleString lexes a Python-style triple-quoted string, which may span
// lines and contains no escape processing — handy for embedding rule
// sources directly in analysis scripts.
func (l *scriptLexer) lexTripleString() error {
	startLine := l.line
	startCol := l.col(l.pos)
	l.pos += 3
	start := l.pos
	for l.pos+2 < len(l.src) {
		if l.src[l.pos] == '"' && l.src[l.pos+1] == '"' && l.src[l.pos+2] == '"' {
			l.emit(token{kind: tString, text: l.src[start:l.pos], line: startLine, col: startCol})
			l.pos += 3
			return nil
		}
		if l.src[l.pos] == '\n' {
			l.line++
			l.lineStart = l.pos + 1
		}
		l.pos++
	}
	return fmt.Errorf("script: line %d: unterminated triple-quoted string", startLine)
}

func (l *scriptLexer) lexNumber() {
	start := l.pos
	seenE := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' || c == '.' {
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && !seenE {
			seenE = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		// e.g. "1.2.3" — take the longest valid prefix.
		for len(text) > 1 {
			text = text[:len(text)-1]
			if v, e2 := strconv.ParseFloat(text, 64); e2 == nil {
				n = v
				break
			}
		}
		l.pos = start + len(text)
	}
	l.emit(token{kind: tNumber, text: text, num: n, line: l.line, col: l.col(start)})
}

func (l *scriptLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isScriptIdentChar(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	kind := tIdent
	if keywords[text] {
		kind = tKeyword
	}
	l.emit(token{kind: kind, text: text, line: l.line, col: l.col(start)})
}

// lexOp lexes an operator/punctuation token and returns the bracket-depth
// delta it contributes.
func (l *scriptLexer) lexOp() (bool, int) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	col := l.col(l.pos)
	switch two {
	case "==", "!=", "<=", ">=":
		l.emit(token{kind: tOp, text: two, line: l.line, col: col})
		l.pos += 2
		return true, 0
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', ',', '.', ':', ';':
		l.emit(token{kind: tOp, text: string(c), line: l.line, col: col})
		l.pos++
		return true, 0
	case '(', '[':
		l.emit(token{kind: tOp, text: string(c), line: l.line, col: col})
		l.pos++
		return true, 1
	case ')', ']':
		l.emit(token{kind: tOp, text: string(c), line: l.line, col: col})
		l.pos++
		return true, -1
	case '{', '}':
		l.emit(token{kind: tOp, text: string(c), line: l.line, col: col})
		l.pos++
		return true, 0
	}
	return false, 0
}
