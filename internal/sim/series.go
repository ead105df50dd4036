package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Series is one labeled curve of a figure: y(x) with optional confidence
// bounds.
type Series struct {
	Label string
	X, Y  []float64
	YLow  []float64
	YHigh []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// AddWithBounds appends a point with confidence bounds.
func (s *Series) AddWithBounds(x, y, lo, hi float64) {
	s.Add(x, y)
	s.YLow = append(s.YLow, lo)
	s.YHigh = append(s.YHigh, hi)
}

// WriteCSV writes one or more series as long-format CSV:
// label,x,y[,ylow,yhigh].
func WriteCSV(w io.Writer, series ...Series) error {
	hasBounds := false
	for _, s := range series {
		if len(s.YLow) > 0 {
			hasBounds = true
		}
	}
	header := "label,x,y"
	if hasBounds {
		header += ",ylow,yhigh"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			line := fmt.Sprintf("%s,%g,%g", s.Label, s.X[i], s.Y[i])
			if hasBounds {
				lo, hi := 0.0, 0.0
				if i < len(s.YLow) {
					lo, hi = s.YLow[i], s.YHigh[i]
				}
				line += fmt.Sprintf(",%g,%g", lo, hi)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table renders aligned text tables for terminal reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001 || v >= 100000:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Write renders the table. Cells are measured and padded in runes, so
// columns holding non-ASCII text such as "→" still line up.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := utf8.RuneCountInString(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// SortSeriesByX sorts a series' points by x (harness convenience).
func SortSeriesByX(s *Series) {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	apply := func(v []float64) []float64 {
		if len(v) == 0 {
			return v
		}
		out := make([]float64, len(v))
		for i, k := range idx {
			out[i] = v[k]
		}
		return out
	}
	s.X = apply(s.X)
	s.Y = apply(s.Y)
	s.YLow = apply(s.YLow)
	s.YHigh = apply(s.YHigh)
}
