// The repository benchmark is a module of its own so that the root
// module's tier-1 build and tests never compile or run it. The module
// path extends the root's ("repro"), which is what lets it import the
// root's internal packages through the replace below.
module repro/benchmark

go 1.23

require repro v0.0.0

replace repro => ../
