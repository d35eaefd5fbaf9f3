package engine

import (
	"fmt"

	"repro/internal/sqlast"
)

// execWrite executes a CREATE TABLE, CREATE INDEX or INSERT
// statement for RunWithOptionsContext, returning a single status row.
func (db *DB) execWrite(st sqlast.Statement) (*Result, error) {
	switch s := st.(type) {
	case *sqlast.CreateTable:
		cols := make([]Column, len(s.Cols))
		for i, c := range s.Cols {
			var typ Type
			switch c.Type {
			case "INT":
				typ = TInt
			case "FLOAT":
				typ = TFloat
			case "TEXT":
				typ = TText
			case "BYTES":
				typ = TBytes
			default:
				return nil, fmt.Errorf("engine: unknown column type %q", c.Type)
			}
			cols[i] = Column{Name: c.Name, Type: typ}
		}
		if _, err := db.CreateTable(s.Name, cols...); err != nil {
			return nil, err
		}
		return status(fmt.Sprintf("table %s created", s.Name)), nil
	case *sqlast.CreateIndex:
		t := db.Table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", s.Table)
		}
		if _, err := t.CreateIndex(s.Name, s.Cols...); err != nil {
			return nil, err
		}
		return status(fmt.Sprintf("index %s created", s.Name)), nil
	case *sqlast.Insert:
		t := db.Table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", s.Table)
		}
		rows := make([][]Value, len(s.Rows))
		for j, exprRow := range s.Rows {
			row := make([]Value, len(exprRow))
			for i, e := range exprRow {
				v, err := literalValue(e)
				if err != nil {
					return nil, err
				}
				// Coerce integer literals into float columns.
				if i < len(t.Cols) && t.Cols[i].Type == TFloat && v.Kind == KInt {
					v = NewFloat(float64(v.I))
				}
				row[i] = v
			}
			rows[j] = row
		}
		// One batch: a multi-row INSERT commits atomically (single WAL
		// record, single published snapshot) or not at all.
		if _, err := t.InsertBatch(rows); err != nil {
			return nil, err
		}
		return status(fmt.Sprintf("%d row(s) inserted", len(s.Rows))), nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

func status(msg string) *Result {
	return &Result{Cols: []string{"status"}, Rows: [][]Value{{NewText(msg)}}}
}

// literalValue folds a literal expression (INSERT values are literal
// rows only).
func literalValue(e sqlast.Expr) (Value, error) {
	switch x := e.(type) {
	case *sqlast.IntLit:
		return NewInt(x.Value), nil
	case *sqlast.FloatLit:
		return NewFloat(x.Value), nil
	case *sqlast.StrLit:
		return NewText(x.Value), nil
	case *sqlast.BytesLit:
		return NewBytes(x.Value), nil
	case *sqlast.NullLit:
		return Null, nil
	case *sqlast.Binary:
		// Allow constant concatenation and arithmetic in VALUES.
		l, err := literalValue(x.L)
		if err != nil {
			return Null, err
		}
		r, err := literalValue(x.R)
		if err != nil {
			return Null, err
		}
		switch x.Op {
		case sqlast.OpConcat:
			return Concat(l, r)
		case sqlast.OpAdd:
			return Arith('+', l, r)
		case sqlast.OpSub:
			return Arith('-', l, r)
		case sqlast.OpMul:
			return Arith('*', l, r)
		case sqlast.OpDiv:
			return Arith('/', l, r)
		case sqlast.OpMod:
			return Arith('%', l, r)
		}
	}
	return Null, fmt.Errorf("engine: INSERT values must be literals, got %T", e)
}
