package script

// RunTreeWalk hands the tree-walking oracle (treewalk_test.go) to the
// external test package, which runs it over the shipped asset scripts in a
// core.Session — something an in-package test cannot build without an
// import cycle.
var RunTreeWalk = runTreeWalk
