//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: instrumentation allocates shadow
// state per synchronization event.
const raceEnabled = true
