package main

import (
	"fmt"
	"strings"

	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/sqlparser"
)

// interpret runs the reference interpreter, engine.Exec, on q. The
// interpreter evaluates a comma join as a full cross product, which on the
// 10^5-row sky tables would take hours, so for such a join it runs on a
// reduced database instead: each table keeps only the rows that pass the
// WHERE conjuncts naming that table alone (found by the interpreter itself),
// then the rows whose key has a partner under each equality conjunct
// between two tables. For an inner join under a conjunctive WHERE neither
// step drops a row that could reach the result, so the interpreter returns
// the same table.
func interpret(db *engine.DB, q *dt.Node) (*engine.Table, error) {
	if red, err := reduce(db, q); err != nil {
		return nil, err
	} else if red != nil {
		db = red
	}
	return engine.Exec(db, q)
}

// reduce returns the reduced database for a comma join of plain tables, or
// nil when q is not one.
func reduce(db *engine.DB, q *dt.Node) (*engine.DB, error) {
	from, where := q.Children[1], q.Children[2]
	if len(from.Children) < 2 || where.Kind != dt.KindWhere {
		return nil, nil
	}
	type ref struct {
		table *engine.Table
		alias string
		conj  []string
	}
	var refs []*ref
	tables := map[*engine.Table]bool{}
	for _, tr := range from.Children {
		if tr.Kind != dt.KindTableRef || tr.Children[0].Kind != dt.KindIdent {
			return nil, nil
		}
		t, ok := db.Table(tr.Children[0].Label)
		if !ok || tables[t] {
			return nil, nil // unknown tables are the interpreter's to report; self-joins stay whole
		}
		tables[t] = true
		alias := t.Name
		if tr.Children[1].Kind == dt.KindIdent {
			alias = tr.Children[1].Label
		}
		refs = append(refs, &ref{table: t, alias: strings.ToLower(alias)})
	}
	conjuncts := []*dt.Node{where.Children[0]}
	if where.Children[0].Kind == dt.KindAnd {
		conjuncts = where.Children[0].Children
	}
	// aliasesOf returns the aliases a conjunct's columns name, or nil if any
	// column is unqualified or the conjunct holds a subquery.
	aliasesOf := func(n *dt.Node) map[string]bool {
		out := map[string]bool{}
		ok := true
		n.Walk(func(m *dt.Node) bool {
			switch m.Kind {
			case dt.KindQuery:
				ok = false
			case dt.KindIdent:
				i := strings.IndexByte(m.Label, '.')
				if i < 0 {
					ok = false
				} else {
					out[strings.ToLower(m.Label[:i])] = true
				}
			}
			return ok
		})
		if !ok {
			return nil
		}
		return out
	}
	var equis [][2]string // column pairs as "alias.col"
	for _, c := range conjuncts {
		as := aliasesOf(c)
		switch {
		case len(as) == 1:
			for _, r := range refs {
				if as[r.alias] {
					r.conj = append(r.conj, sqlparser.ToSQL(c))
				}
			}
		case len(as) == 2 && c.Kind == dt.KindBinary && c.Label == "=" &&
			c.Children[0].Kind == dt.KindIdent && c.Children[1].Kind == dt.KindIdent:
			equis = append(equis, [2]string{strings.ToLower(c.Children[0].Label), strings.ToLower(c.Children[1].Label)})
		}
	}

	rows := map[string][][]engine.Value{} // alias -> surviving rows
	for _, r := range refs {
		rows[r.alias] = r.table.Rows
		if len(r.conj) == 0 {
			continue
		}
		sql := fmt.Sprintf("SELECT * FROM %s AS %s WHERE %s", r.table.Name, r.alias, strings.Join(r.conj, " AND "))
		fq, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("reduce: %s: %w", sql, err)
		}
		res, err := engine.Exec(db, fq)
		if err != nil {
			return nil, fmt.Errorf("reduce: %s: %w", sql, err)
		}
		rows[r.alias] = res.Rows
	}
	col := func(ref string) (alias string, idx int) {
		i := strings.IndexByte(ref, '.')
		alias = ref[:i]
		for _, r := range refs {
			if r.alias == alias {
				return alias, r.table.ColIndex(ref[i+1:])
			}
		}
		return alias, -1
	}
	type keyT struct {
		str bool
		s   string
		n   float64
	}
	key := func(v engine.Value) keyT {
		if v.IsStr {
			return keyT{str: true, s: v.Str}
		}
		if v.Num == 0 {
			return keyT{} // -0 = 0
		}
		return keyT{n: v.Num}
	}
	semi := func(keep, by string) {
		ka, ia := col(keep)
		kb, ib := col(by)
		if ia < 0 || ib < 0 || ka == kb {
			return
		}
		seen := map[keyT]bool{}
		for _, row := range rows[kb] {
			if !row[ib].Null {
				seen[key(row[ib])] = true
			}
		}
		var out [][]engine.Value
		for _, row := range rows[ka] {
			if !row[ia].Null && seen[key(row[ia])] {
				out = append(out, row)
			}
		}
		rows[ka] = out
	}
	for _, e := range equis {
		semi(e[0], e[1])
		semi(e[1], e[0])
	}

	red := engine.NewDB(db.Now)
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		red.Add(t)
	}
	for _, r := range refs {
		t := r.table
		red.Add(&engine.Table{Name: t.Name, Cols: t.Cols, Types: t.Types, Rows: rows[r.alias]})
	}
	return red, nil
}
