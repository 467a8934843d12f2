// Package user reaches lib's Used* names.
package user

import (
	"fmt"

	"fixture/internal/lib"
)

// DeadVar is user's own name: it does not reach lib.DeadVar.
var DeadVar = lib.UsedVar

type local struct{ DeadFunc func() }

// Run reaches lib.UsedFunc, lib.UsedType and UsedMethod. The field
// selector l.DeadFunc does not reach the package-level lib.DeadFunc.
func Run(l local) {
	lib.UsedFunc()
	lib.UsedType{}.UsedMethod()
	l.DeadFunc()
}

// Speak reaches lib.Loud's Speak and String only by converting a Loud to
// an interface.
func Speak() {
	var s lib.Speaker = lib.Loud{}
	fmt.Println(s.Speak(), lib.Loud{})
}
