package user

import (
	"testing"

	"fixture/internal/lib"
)

func TestOther(t *testing.T) { lib.OtherTestOnly() }
