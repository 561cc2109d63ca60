//go:build race

package main

// raceBuild reports that the race detector, which slows the smoke
// several-fold, is compiled in.
const raceBuild = true
