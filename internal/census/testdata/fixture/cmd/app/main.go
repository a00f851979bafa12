// Command app is the census test's only program: what it reaches in
// fixture/internal/lib is live, the rest is not.
package main

import "fixture/internal/lib"

func main() {
	println(lib.Total([]lib.Shape{lib.Square{S: 2}}))
	println(lib.Circle{R: 1}.R)
}
