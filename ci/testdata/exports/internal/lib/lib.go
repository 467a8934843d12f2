// Package lib declares one reached and one unreached identifier of each
// kind, and names reached only in the ways the export check must tell
// apart.
package lib

// UsedFunc is called by package user.
func UsedFunc() {}

// DeadFunc is called by nothing.
func DeadFunc() {}

// UsedType is built by package user.
type UsedType struct{}

// DeadType appears only as the receiver of its own method.
type DeadType struct{}

// UsedMethod is called by package user.
func (UsedType) UsedMethod() {}

// DeadMethod is called by nothing.
func (UsedType) DeadMethod() {}

// UsedMethod shares its name with UsedType.UsedMethod, which package user
// calls; no call resolves to this one.
func (DeadType) UsedMethod() {}

// UsedVar is read by package user, DeadVar by nothing.
var UsedVar, DeadVar int

// UsedConst is read only by its bare name inside this package.
const (
	UsedConst = 1
	DeadConst = 2
)

var mirror = UsedConst

// OwnTestOnly is mentioned only by this package's test.
func OwnTestOnly() {}

// OtherTestOnly is mentioned only by package user's test.
func OtherTestOnly() {}

// BenchOnly is called only from the nested bench module.
func BenchOnly() {}

// Allowed is unreached and listed in allow.txt.
func Allowed() {}

// unexported names are not checked.
func unexported() {}

// Speaker is the interface package user converts Loud to.
type Speaker interface{ Speak() string }

// Loud is converted to Speaker and to fmt.Stringer by package user; no
// selector names its methods.
type Loud struct{}

// Speak is reached through Speaker, an interface of the module.
func (Loud) Speak() string { return "hi" }

// String is reached through fmt.Stringer, an interface of an imported
// package.
func (Loud) String() string { return "loud" }

// Whisper is in no interface Loud satisfies.
func (Loud) Whisper() string { return "psst" }
