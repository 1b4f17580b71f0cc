package parser

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
)

// ParseBatch parses a semicolon-separated sequence of SELECT statements
// into a batch; queries are named q1, q2, … in order.
func ParseBatch(src string) (*logical.Batch, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	batch := &logical.Batch{}
	for !p.at(tokEOF) {
		q, err := p.parseSelect(fmt.Sprintf("q%d", len(batch.Queries)+1))
		if err != nil {
			return nil, err
		}
		batch.Add(q)
		for p.acceptSym(";") {
		}
	}
	if len(batch.Queries) == 0 {
		return nil, fmt.Errorf("parser: empty batch")
	}
	return batch, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	where := t.text
	if t.kind == tokEOF {
		where = "end of input"
	}
	return fmt.Errorf("parser: line %d at %q: %s", t.line, where, fmt.Sprintf(format, args...))
}

// selectItem is one entry of the SELECT list.
type selectItem struct {
	agg   *expr.Agg // nil for a plain column
	col   expr.Col  // plain column, or aggregate argument
	isAgg bool
}

func (p *parser) parseSelect(name string) (*logical.Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	var items []selectItem
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	bb := logical.NewBlock()
	for {
		if !p.at(tokIdent) {
			return nil, p.errf("expected table name")
		}
		table := p.next().text
		alias := table
		if p.at(tokIdent) && !p.atKeyword("where") && !p.atKeyword("group") {
			alias = p.next().text
		}
		bb.Scan(table, alias)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		for {
			if err := p.parseCondition(bb); err != nil {
				return nil, err
			}
			if !p.acceptKeyword("and") {
				break
			}
		}
	}
	hasAgg := false
	for _, it := range items {
		if it.isAgg {
			hasAgg = true
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			bb.GroupBy(c.String())
			if !p.acceptSym(",") {
				break
			}
		}
		hasAgg = true
	}
	if hasAgg {
		for _, it := range items {
			switch {
			case it.isAgg && it.agg.Func == expr.Count:
				bb.Count()
			case it.isAgg:
				switch it.agg.Func {
				case expr.Sum:
					bb.Sum(it.col.String())
				case expr.Min:
					bb.Min(it.col.String())
				case expr.Max:
					bb.Max(it.col.String())
				}
			default:
				// A plain column in an aggregating query must be grouped;
				// add it to GROUP BY if the user did not (permissive mode).
				q := bb.Build()
				present := false
				if q.Agg != nil {
					for _, g := range q.Agg.GroupBy {
						if g == it.col {
							present = true
						}
					}
				}
				if !present {
					bb.GroupBy(it.col.String())
				}
			}
		}
	}
	return bb.Query(name), nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.acceptSym("*") {
		return selectItem{}, nil // SELECT *: pure SPJ output
	}
	for _, kw := range []string{"sum", "count", "min", "max"} {
		if p.atKeyword(kw) && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.i++ // keyword
			p.i++ // (
			var it selectItem
			it.isAgg = true
			switch kw {
			case "sum":
				it.agg = &expr.Agg{Func: expr.Sum}
			case "count":
				it.agg = &expr.Agg{Func: expr.Count}
			case "min":
				it.agg = &expr.Agg{Func: expr.Min}
			case "max":
				it.agg = &expr.Agg{Func: expr.Max}
			}
			if kw == "count" && p.acceptSym("*") {
				// count(*)
			} else {
				c, err := p.parseColumn()
				if err != nil {
					return it, err
				}
				it.col = c
			}
			if err := p.expectSym(")"); err != nil {
				return it, err
			}
			return it, nil
		}
	}
	c, err := p.parseColumn()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{col: c}, nil
}

func (p *parser) parseColumn() (expr.Col, error) {
	if !p.at(tokIdent) {
		return expr.Col{}, p.errf("expected column reference")
	}
	alias := p.next().text
	if err := p.expectSym("."); err != nil {
		return expr.Col{}, err
	}
	if !p.at(tokIdent) {
		return expr.Col{}, p.errf("expected column name after %q.", alias)
	}
	return expr.Col{Alias: alias, Column: p.next().text}, nil
}

// parseCondition parses one WHERE conjunct: either a join condition
// (col = col) or a selection (col op number).
func (p *parser) parseCondition(bb *logical.BlockBuilder) error {
	left, err := p.parseColumn()
	if err != nil {
		return err
	}
	if p.cur().kind != tokSymbol {
		return p.errf("expected comparison operator")
	}
	op := p.next().text
	var cmpOp expr.CmpOp
	switch op {
	case "=":
		cmpOp = expr.EQ
	case "<":
		cmpOp = expr.LT
	case "<=":
		cmpOp = expr.LE
	case ">":
		cmpOp = expr.GT
	case ">=":
		cmpOp = expr.GE
	default:
		return p.errf("unsupported operator %q", op)
	}
	switch {
	case p.at(tokNumber):
		val := p.next().num
		bb.Cmp(left.String(), cmpOp, val)
		return nil
	case p.at(tokIdent):
		if cmpOp != expr.EQ {
			return p.errf("join conditions must use =")
		}
		right, err := p.parseColumn()
		if err != nil {
			return err
		}
		bb.Join(left.String(), right.String())
		return nil
	default:
		return p.errf("expected number or column after operator")
	}
}
