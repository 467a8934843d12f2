package fixture_test

import (
	"testing"

	"fixture"
)

func TestFacade(t *testing.T) { _ = fixture.RootTestAlias{} }
