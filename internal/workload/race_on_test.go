//go:build race

package workload

// raceEnabled reports whether the race detector is compiled in; the
// memory budget skips under -race, whose shadow state is not the
// production heap it measures.
const raceEnabled = true
