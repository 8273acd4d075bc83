// Package typeerror does not type-check: LoadDir must return the error
// rather than run the checks on partial type information.
package typeerror

var n int = "not an int"
