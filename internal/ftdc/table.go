package ftdc

// Column is one registered telemetry column of a source of type T:
// the capture name and the read producing its current value.
type Column[T any] struct {
	Name string
	Read func(T) int64
}

// Table is a source's telemetry registry. Both its schema (Names) and
// its sample row (Append) are generated from the one list, so they
// cannot drift apart: adding a column is adding one row at the end of
// its block. Columns are append-only — never renamed or reordered — so
// capture diffs stay meaningful across versions.
type Table[T any] []Column[T]

// Names returns the column names in capture order.
func (t Table[T]) Names() []string {
	names := make([]string, len(t))
	for i, c := range t {
		names[i] = c.Name
	}
	return names
}

// Append appends one value per column, in Names order. It allocates
// nothing beyond the caller's slice, so collectors reuse one scratch
// slice across samples. Each column is an independent read: a row is
// not one atomic snapshot, which telemetry tolerates.
func (t Table[T]) Append(vals []int64, src T) []int64 {
	for _, c := range t {
		vals = append(vals, c.Read(src))
	}
	return vals
}

// Value reads the named column, reporting false when the table has no
// such column.
func (t Table[T]) Value(src T, name string) (int64, bool) {
	for _, c := range t {
		if c.Name == name {
			return c.Read(src), true
		}
	}
	return 0, false
}

// HistColumns returns the summary columns of the histogram hist picks
// out of a source: count, p50 and p99 (both in nanoseconds), named
// prefix_count, prefix_p50_ns and prefix_p99_ns.
func HistColumns[T any](prefix string, hist func(T) *Hist) Table[T] {
	return Table[T]{
		{prefix + "_count", func(src T) int64 { return hist(src).Count() }},
		{prefix + "_p50_ns", func(src T) int64 { return int64(hist(src).Quantile(0.50)) }},
		{prefix + "_p99_ns", func(src T) int64 { return int64(hist(src).Quantile(0.99)) }},
	}
}
