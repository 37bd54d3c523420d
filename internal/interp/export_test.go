package interp

// RunTreeWalk exposes the tree-walking oracle to the external test package.
var RunTreeWalk = runTreeWalk
