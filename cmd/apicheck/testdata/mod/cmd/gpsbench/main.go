package main

import "example/internal/lib"

func main() { lib.BenchOnly() }
