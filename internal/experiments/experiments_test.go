package experiments

import (
	"strconv"
	"testing"
)

var small = Config{Small: true}

func atoiCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTable1Shapes(t *testing.T) {
	tables, err := Table1(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	main := tables[0]
	if len(main.Rows) < 5 {
		t.Fatalf("rows = %d", len(main.Rows))
	}
	// Load must decrease with p on every row.
	for _, r := range main.Rows {
		l4 := atoiCell(t, r[3])
		l64 := atoiCell(t, r[5])
		if l64 >= l4 {
			t.Errorf("%s/%s: load did not decrease (%v -> %v)", r[0], r[1], l4, l64)
		}
	}
	// The multi-round rows must beat the one-round rows at p=64 for the
	// ψ*>ρ* queries (rows come in one-round/multi-round pairs).
	for i := 0; i+1 < len(main.Rows); i += 2 {
		if main.Rows[i][0] != main.Rows[i+1][0] {
			break // pairs exhausted
		}
		one := atoiCell(t, main.Rows[i][5])
		multi := atoiCell(t, main.Rows[i+1][5])
		if multi >= one {
			t.Errorf("%s: multi-round load %v not below one-round %v", main.Rows[i][0], multi, one)
		}
	}
	// Binary-relation cell: loads must decrease with p.
	tri := tables[1]
	first := atoiCell(t, tri.Rows[0][1])
	last := atoiCell(t, tri.Rows[len(tri.Rows)-2][1])
	if last >= first {
		t.Errorf("triangle loads did not decrease: %v -> %v", first, last)
	}
	// Lower-bound cell: measured min load between the two bounds
	// (within slack) and above the cover bound.
	lb := tables[2]
	for _, r := range lb.Rows {
		min := atoiCell(t, r[1])
		packB := atoiCell(t, r[2])
		coverB := atoiCell(t, r[3])
		if packB <= coverB {
			t.Fatalf("p=%s: packing bound %v <= cover bound %v", r[0], packB, coverB)
		}
		if min < coverB {
			t.Errorf("p=%s: min load %v below cover bound %v", r[0], min, coverB)
		}
		if min > 4*packB {
			t.Errorf("p=%s: min load %v far above packing bound %v", r[0], min, packB)
		}
	}
}

func TestFigure1AllChecked(t *testing.T) {
	tab, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "" {
			t.Errorf("%s: empty class", r[0])
		}
	}
}

func TestFigure2PinsWitness(t *testing.T) {
	tab, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range tab.Rows {
		if r[0] == "witness E' (paper, Thm 6)" && r[1] == "{R2}" {
			found = true
		}
	}
	if !found {
		t.Fatalf("paper witness row missing: %v", tab.Rows)
	}
}

func TestFigure3AllChecked(t *testing.T) {
	tab, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[5] != "yes" {
			t.Errorf("%s: inequality %q violated", r[0], r[4])
		}
	}
}

func TestFigure4GapAtP16(t *testing.T) {
	tab, err := Figure4(small)
	if err != nil {
		t.Fatal(err)
	}
	// Find the p=16 row: optimal load must not exceed conservative.
	for _, r := range tab.Rows {
		if r[0] != "16" {
			continue
		}
		cons := atoiCell(t, r[3])
		opt := atoiCell(t, r[4])
		if opt > cons {
			t.Errorf("optimal load %v above conservative %v", opt, cons)
		}
	}
	// Analytic row: conservative threshold strictly above optimal.
	last := tab.Rows[len(tab.Rows)-1]
	if atoiCell(t, last[1]) <= atoiCell(t, last[2]) {
		t.Errorf("analytic thresholds not separated: %v vs %v", last[1], last[2])
	}
}

func TestFigure5PathsDisjoint(t *testing.T) {
	tab, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no decomposition steps")
	}
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		for _, rel := range splitList(r[2]) {
			if seen[rel] {
				t.Errorf("relation %s on two paths", rel)
			}
			seen[rel] = true
		}
	}
}

func splitList(s string) []string {
	s = trimBrackets(s)
	if s == "" {
		return nil
	}
	var out []string
	cur := ""
	for _, c := range s {
		if c == ' ' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(c)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func trimBrackets(s string) string {
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		return s[1 : len(s)-1]
	}
	return s
}

func TestFigure6TracksTheory(t *testing.T) {
	tab, err := Figure6(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		got := atoiCell(t, r[1])
		want := atoiCell(t, r[2])
		if got > 3*want || got < want/3 {
			t.Errorf("p=%s: load %v vs theory %v off by >3x", r[0], got, want)
		}
	}
}

func TestFigure7BoundsOrdered(t *testing.T) {
	tab, err := Figure7(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		min := atoiCell(t, r[4])
		packB := atoiCell(t, r[5])
		coverB := atoiCell(t, r[6])
		if packB <= coverB {
			t.Errorf("%s: bounds not separated", r[0])
		}
		if min < coverB {
			t.Errorf("%s: min load below cover bound", r[0])
		}
	}
}

func TestSection13GapShown(t *testing.T) {
	tab, err := Section13(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		one := atoiCell(t, r[2])
		multi := atoiCell(t, r[4])
		if multi >= one {
			t.Errorf("%s p=%s: multi-round load %v not below one-round %v", r[0], r[1], multi, one)
		}
	}
}

func TestEMCorollaryRuns(t *testing.T) {
	tab, err := EMCorollary(small)
	if err != nil {
		t.Fatal(err)
	}
	fitted := atoiCell(t, tab.Rows[0][0])
	if fitted < 1.4 || fitted > 3.0 {
		t.Errorf("fitted rho = %v, want ≈ 2", fitted)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tables, err := All(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 10 {
		t.Fatalf("tables = %d", len(tables))
	}
}
