package wsdl

import "testing"

func playerDesc() *Description {
	return &Description{
		Name:     "smart-media-player",
		Provider: "imcl",
		Version:  "1.0",
		Doc:      "follow-me music player (paper §5 demo 1)",
		Services: []Service{{
			Name: "playback",
			Ports: []Port{{
				Name: "control",
				Operations: []Operation{
					{Name: "play", Input: "trackRef", Output: "status"},
					{Name: "pause", Output: "status"},
					{Name: "seek", Input: "positionMs", Output: "status"},
				},
			}},
		}},
		Requires: Requirements{
			MinScreenWidth: 320, MinScreenHeight: 240,
			MinMemoryMB: 64, NeedsAudio: true,
		},
		Preferences: []Preference{
			{Key: "handedness", Value: "left"},
			{Key: "volume", Value: "70"},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := playerDesc().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Description)
	}{
		{"noName", func(d *Description) { d.Name = "" }},
		{"noServices", func(d *Description) { d.Services = nil }},
		{"unnamedService", func(d *Description) { d.Services[0].Name = "" }},
		{"dupService", func(d *Description) { d.Services = append(d.Services, d.Services[0]) }},
		{"noPorts", func(d *Description) { d.Services[0].Ports = nil }},
		{"unnamedPort", func(d *Description) { d.Services[0].Ports[0].Name = "" }},
		{"noOps", func(d *Description) { d.Services[0].Ports[0].Operations = nil }},
		{"unnamedOp", func(d *Description) { d.Services[0].Ports[0].Operations[0].Name = "" }},
		{"negativeReq", func(d *Description) { d.Requires.MinMemoryMB = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := playerDesc()
			tc.mutate(d)
			if err := d.Validate(); err == nil {
				t.Fatal("invalid description accepted")
			}
		})
	}
}
