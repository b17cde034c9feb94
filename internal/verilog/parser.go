package verilog

import (
	"fmt"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
type Parser struct {
	toks  []Token
	pos   int
	depth int // current nesting of expressions and statements (enter/leave)
}

// maxNesting bounds how deeply expressions (parentheses, concatenations,
// selects, ternaries, unary operator chains) and statements may nest.
// Every nesting level is a few frames of parser recursion, so without a
// bound a hostile source of deeply nested parentheses overflows the
// goroutine stack — a fatal error no recover can contain. Hand-written
// and generated RTL stays far below the bound.
const maxNesting = 1000

// ParseError is a syntax error with source position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("verilog: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse lexes and parses a complete source file.
func Parse(src string) (*Source, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	out := &Source{}
	for p.cur().Kind != TokEOF {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		out.Modules = append(out.Modules, m)
	}
	if len(out.Modules) == 0 {
		return nil, fmt.Errorf("verilog: no modules found")
	}
	return out, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) peekKind(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// enter descends one nesting level, failing with a ParseError past
// maxNesting; every successful enter is paired with a deferred leave.
func (p *Parser) enter() error {
	if p.depth >= maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) parseModule() (*Module, error) {
	start, err := p.expect(TokModule)
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	m := &Module{Name: nameTok.Text, Line: start.Line}

	// Optional #(parameter ...) header.
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			if p.accept(TokParameter) {
				// fallthrough to name=value
			}
			nt, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: nt.Text, Value: val})
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}

	// Port list: either simple names or ANSI-style declarations.
	if p.accept(TokLParen) {
		if !p.peekKind(TokRParen) {
			for {
				switch p.cur().Kind {
				case TokInput, TokOutput, TokInout:
					d, err := p.parseANSIPortDecl()
					if err != nil {
						return nil, err
					}
					m.Decls = append(m.Decls, d)
					m.PortOrder = append(m.PortOrder, d.Names...)
				case TokIdent:
					m.PortOrder = append(m.PortOrder, p.next().Text)
				default:
					return nil, p.errf("expected port name or direction, found %s", p.cur())
				}
				if !p.accept(TokComma) {
					break
				}
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}

	// Module items.
	for {
		switch p.cur().Kind {
		case TokEndModule:
			p.next()
			return m, nil
		case TokEOF:
			return nil, p.errf("unexpected EOF inside module %s", m.Name)
		case TokInput, TokOutput, TokInout:
			d, err := p.parsePortDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case TokWire, TokReg:
			d, err := p.parseNetDecl(m)
			if err != nil {
				return nil, err
			}
			// A `reg` re-declaration of an output port marks that port reg.
			p.mergeDecl(m, d)
		case TokInteger, TokGenvar:
			// Treated as 32-bit regs for elaboration purposes.
			p.next()
			d := &Decl{IsReg: true, Hi: &Number{Value: 31, Width: 32}, Lo: &Number{Value: 0, Width: 32}, Line: p.cur().Line}
			for {
				nt, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				d.Names = append(d.Names, nt.Text)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case TokParameter, TokLocalParam:
			local := p.cur().Kind == TokLocalParam
			p.next()
			// Optional range on parameters: skip it.
			if p.accept(TokLBracket) {
				if _, err := p.parseExpr(); err != nil {
					return nil, err
				}
				if _, err := p.expect(TokColon); err != nil {
					return nil, err
				}
				if _, err := p.parseExpr(); err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRBracket); err != nil {
					return nil, err
				}
			}
			for {
				nt, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokAssign); err != nil {
					return nil, err
				}
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				m.Params = append(m.Params, &Param{Name: nt.Text, Value: val, Local: local})
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
		case TokAssignKW:
			p.next()
			for {
				lhs, err := p.parsePrimary()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokAssign); err != nil {
					return nil, err
				}
				rhs, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				m.Assigns = append(m.Assigns, &ContAssign{LHS: lhs, RHS: rhs, Line: p.cur().Line})
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
		case TokAlways:
			ab, err := p.parseAlways()
			if err != nil {
				return nil, err
			}
			m.Always = append(m.Always, ab)
		case TokIdent:
			inst, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			m.Instances = append(m.Instances, inst)
		default:
			return nil, p.errf("unexpected %s in module body", p.cur())
		}
	}
}

// mergeDecl merges a wire/reg declaration into the module, upgrading an
// existing port declaration to reg when names collide.
func (p *Parser) mergeDecl(m *Module, d *Decl) {
	var fresh []string
	for _, n := range d.Names {
		if prev := m.DeclOf(n); prev != nil {
			if d.IsReg {
				prev.IsReg = true
			}
			continue
		}
		fresh = append(fresh, n)
	}
	if len(fresh) > 0 {
		d.Names = fresh
		m.Decls = append(m.Decls, d)
	}
}

func (p *Parser) parseRangeOpt() (hi, lo Expr, err error) {
	if !p.accept(TokLBracket) {
		return nil, nil, nil
	}
	hi, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err = p.expect(TokColon); err != nil {
		return nil, nil, err
	}
	lo, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err = p.expect(TokRBracket); err != nil {
		return nil, nil, err
	}
	return hi, lo, nil
}

// parseANSIPortDecl parses "input [7:0] a" style declarations inside the
// module port list (names continue until a direction keyword or ')').
func (p *Parser) parseANSIPortDecl() (*Decl, error) {
	d := &Decl{IsPort: true, Line: p.cur().Line}
	switch p.next().Kind {
	case TokInput:
		d.Dir = DirInput
	case TokOutput:
		d.Dir = DirOutput
	case TokInout:
		d.Dir = DirInout
	}
	if p.accept(TokReg) {
		d.IsReg = true
	}
	p.accept(TokWire)
	var err error
	d.Hi, d.Lo, err = p.parseRangeOpt()
	if err != nil {
		return nil, err
	}
	nt, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d.Names = []string{nt.Text}
	return d, nil
}

// parsePortDecl parses a non-ANSI port declaration item:
// "input [7:0] a, b;".
func (p *Parser) parsePortDecl() (*Decl, error) {
	d := &Decl{IsPort: true, Line: p.cur().Line}
	switch p.next().Kind {
	case TokInput:
		d.Dir = DirInput
	case TokOutput:
		d.Dir = DirOutput
	case TokInout:
		d.Dir = DirInout
	}
	if p.accept(TokReg) {
		d.IsReg = true
	}
	p.accept(TokWire)
	var err error
	d.Hi, d.Lo, err = p.parseRangeOpt()
	if err != nil {
		return nil, err
	}
	for {
		nt, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, nt.Text)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

// parseNetDecl parses "wire [3:0] w1, w2;" or "reg [3:0] r;" possibly with
// an initializer on wires ("wire x = a & b;" becomes a decl + assign).
func (p *Parser) parseNetDecl(m *Module) (*Decl, error) {
	d := &Decl{Line: p.cur().Line}
	d.IsReg = p.next().Kind == TokReg
	var err error
	d.Hi, d.Lo, err = p.parseRangeOpt()
	if err != nil {
		return nil, err
	}
	for {
		nt, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, nt.Text)
		// Memories (reg [7:0] mem [0:63]) are not supported: reject clearly.
		if p.peekKind(TokLBracket) {
			return nil, p.errf("memory arrays are not supported (signal %s)", nt.Text)
		}
		// "wire x = expr;" net initializer becomes a continuous assignment.
		if !d.IsReg && p.accept(TokAssign) {
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Assigns = append(m.Assigns, &ContAssign{
				LHS:  &Ident{Name: nt.Text, Line: nt.Line},
				RHS:  rhs,
				Line: nt.Line,
			})
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseAlways() (*AlwaysBlock, error) {
	start, err := p.expect(TokAlways)
	if err != nil {
		return nil, err
	}
	ab := &AlwaysBlock{Line: start.Line}
	if _, err := p.expect(TokAt); err != nil {
		return nil, err
	}
	if p.accept(TokStar) {
		ab.Star = true
	} else {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if p.accept(TokStar) {
			ab.Star = true
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		} else {
			for {
				ev := EdgeEvent{}
				if p.accept(TokPosedge) {
					ev.Posedge = true
				} else if p.accept(TokNegedge) {
					ev.Negedge = true
				}
				nt, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				ev.Signal = nt.Text
				ab.Events = append(ab.Events, ev)
				if !p.accept(TokOrKW) && !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			// Sensitivity on plain signals (no edge) == combinational.
			allPlain := true
			for _, ev := range ab.Events {
				if ev.Posedge || ev.Negedge {
					allPlain = false
				}
			}
			if allPlain {
				ab.Star = true
				ab.Events = nil
			}
		}
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	ab.Body = body
	return ab, nil
}

func (p *Parser) parseStmtOrBlock() ([]Stmt, error) {
	if p.accept(TokBegin) {
		// Optional block label.
		if p.accept(TokColon) {
			if _, err := p.expect(TokIdent); err != nil {
				return nil, err
			}
		}
		var stmts []Stmt
		for !p.accept(TokEnd) {
			if p.peekKind(TokEOF) {
				return nil, p.errf("unexpected EOF in begin/end block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				stmts = append(stmts, s)
			}
		}
		return stmts, nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Kind {
	case TokSemi:
		p.next()
		return nil, nil
	case TokIf:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		thenB, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: thenB}
		if p.accept(TokElse) {
			elseB, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			st.Else = elseB
		}
		return st, nil
	case TokCase, TokCasez:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		cs := &CaseStmt{Subject: subj}
		for !p.accept(TokEndCase) {
			if p.peekKind(TokEOF) {
				return nil, p.errf("unexpected EOF in case")
			}
			item := CaseItem{}
			if p.accept(TokDefault) {
				p.accept(TokColon)
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Match = append(item.Match, e)
					if !p.accept(TokComma) {
						break
					}
				}
				if _, err := p.expect(TokColon); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			item.Body = body
			cs.Items = append(cs.Items, item)
		}
		return cs, nil
	case TokBegin:
		body, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		// Represent a bare begin/end as an if(1) wrapper-free list; fold into
		// an IfStmt with constant true to keep Stmt single-valued.
		return &IfStmt{Cond: &Number{Value: 1, Width: 1, Sized: true}, Then: body}, nil
	default:
		lhs, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		st := &AssignStmt{LHS: lhs, Line: p.cur().Line}
		switch p.cur().Kind {
		case TokAssign:
			p.next()
		case TokNBAssign:
			p.next()
			st.NonBlocking = true
		default:
			return nil, p.errf("expected = or <= in assignment, found %s", p.cur())
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.RHS = rhs
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return st, nil
	}
}

func (p *Parser) parseInstance() (*Instance, error) {
	modTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	inst := &Instance{ModuleName: modTok.Text, Line: modTok.Line}
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			if p.accept(TokDot) {
				nt, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokLParen); err != nil {
					return nil, err
				}
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRParen); err != nil {
					return nil, err
				}
				inst.Params = append(inst.Params, PortConn{Port: nt.Text, Expr: val})
			} else {
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				inst.Params = append(inst.Params, PortConn{Expr: val})
			}
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	inst.Name = nameTok.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if !p.peekKind(TokRParen) {
		for {
			if _, err := p.expect(TokDot); err != nil {
				return nil, err
			}
			nt, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			conn := PortConn{Port: nt.Text}
			if !p.peekKind(TokRParen) {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				conn.Expr = e
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			inst.Conns = append(inst.Conns, conn)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return inst, nil
}

// ---- Expression parsing (precedence climbing) ----

// Binary operator precedence, higher binds tighter. Mirrors Verilog.
var binPrec = map[TokenKind]int{
	TokLOr:      1,
	TokLAnd:     2,
	TokOr:       3,
	TokXor:      4,
	TokXnor:     4,
	TokAnd:      5,
	TokEq:       6,
	TokNeq:      6,
	TokCaseEq:   6,
	TokLt:       7,
	TokGt:       7,
	TokGe:       7,
	TokNBAssign: 7, // "<=" in expression context means less-or-equal
	TokShl:      8,
	TokShr:      8,
	TokPlus:     9,
	TokMinus:    9,
	TokStar:     10,
	TokSlash:    10,
	TokPct:      10,
}

var binOpText = map[TokenKind]string{
	TokLOr: "||", TokLAnd: "&&", TokOr: "|", TokXor: "^", TokXnor: "~^",
	TokAnd: "&", TokEq: "==", TokNeq: "!=", TokCaseEq: "==", TokLt: "<",
	TokGt: ">", TokGe: ">=", TokNBAssign: "<=", TokShl: "<<", TokShr: ">>",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPct: "%",
}

func (p *Parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *Parser) parseTernary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(TokQuestion) {
		return cond, nil
	}
	t, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, T: t, F: f}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: binOpText[opTok.Kind], L: lhs, R: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.cur().Kind {
	case TokNot:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := "~"
		if t.Text == "~&" || t.Text == "~|" {
			op = t.Text
		}
		return &Unary{Op: op, X: x}, nil
	case TokLNot:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	case TokMinus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case TokPlus:
		p.next()
		return p.parseUnary()
	case TokAnd:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "&", X: x}, nil
	case TokOr:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "|", X: x}, nil
	case TokXor:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "^", X: x}, nil
	case TokXnor:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "~^", X: x}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case TokNumber:
		t := p.next()
		n, err := ParseNumber(t.Text)
		if err != nil {
			return nil, err
		}
		n.Line = t.Line
		return n, nil
	case TokIdent:
		t := p.next()
		var e Expr = &Ident{Name: t.Text, Line: t.Line}
		for p.peekKind(TokLBracket) {
			p.next()
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.accept(TokColon) {
				lo, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRBracket); err != nil {
					return nil, err
				}
				e = &Range{X: e, Hi: first, Lo: lo}
			} else {
				if _, err := p.expect(TokRBracket); err != nil {
					return nil, err
				}
				e = &Index{X: e, Idx: first}
			}
		}
		return e, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokLBrace:
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Replication: {N{expr}}
		if p.peekKind(TokLBrace) {
			p.next()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: inner}, nil
		}
		c := &Concat{Parts: []Expr{first}}
		for p.accept(TokComma) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, p.errf("unexpected %s in expression", p.cur())
	}
}
