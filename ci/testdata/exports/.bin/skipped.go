// Package skipped is never read: the scan skips dot-directories.
package skipped

import "fixture/internal/lib"

var _ = lib.DeadConst
