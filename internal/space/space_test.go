package space

import "testing"

func labDirectory(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	for _, s := range []string{"lab-space", "meeting-space"} {
		if err := d.AddSpace(s); err != nil {
			t.Fatal(err)
		}
	}
	for host, sp := range map[string]string{
		"hostA": "lab-space", "hostB": "lab-space",
		"gwLab": "lab-space", "hostC": "meeting-space", "gwMeet": "meeting-space",
	} {
		if err := d.AddHost(host, sp); err != nil {
			t.Fatal(err)
		}
	}
	for room, host := range map[string]string{
		"office821": "hostA", "office822": "hostB", "meetingRoom1": "hostC",
	} {
		if err := d.AssignRoom(room, host); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDirectoryLookups(t *testing.T) {
	d := labDirectory(t)
	if h, ok := d.HostForRoom("office821"); !ok || h != "hostA" {
		t.Fatalf("HostForRoom = %q, %v", h, ok)
	}
	if _, ok := d.HostForRoom("atlantis"); ok {
		t.Fatal("unknown room resolved")
	}
	if s, ok := d.SpaceOfHost("hostC"); !ok || s != "meeting-space" {
		t.Fatalf("SpaceOfHost = %q, %v", s, ok)
	}
}

func TestDirectoryValidation(t *testing.T) {
	d := labDirectory(t)
	if err := d.AddSpace("lab-space"); err == nil {
		t.Fatal("duplicate space accepted")
	}
	if err := d.AddHost("hostA", "lab-space"); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if err := d.AddHost("hostZ", "void"); err == nil {
		t.Fatal("host in unknown space accepted")
	}
	if err := d.AssignRoom("office821", "hostB"); err == nil {
		t.Fatal("double room assignment accepted")
	}
	if err := d.AssignRoom("newRoom", "ghostHost"); err == nil {
		t.Fatal("room on unknown host accepted")
	}
	if err := d.SetGateway("void", "x"); err == nil {
		t.Fatal("gateway on unknown space accepted")
	}
}

func TestCrossesSpaces(t *testing.T) {
	d := labDirectory(t)
	crosses, possible, err := d.CrossesSpaces("hostA", "hostB")
	if err != nil || crosses || !possible {
		t.Fatalf("same-space = %v %v %v", crosses, possible, err)
	}
	// Inter-space without gateways: crossing impossible.
	crosses, possible, err = d.CrossesSpaces("hostA", "hostC")
	if err != nil || !crosses || possible {
		t.Fatalf("no-gateway crossing = %v %v %v", crosses, possible, err)
	}
	// Install gateways on both sides: now possible.
	if err := d.SetGateway("lab-space", "gwLab"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetGateway("meeting-space", "gwMeet"); err != nil {
		t.Fatal(err)
	}
	crosses, possible, err = d.CrossesSpaces("hostA", "hostC")
	if err != nil || !crosses || !possible {
		t.Fatalf("gateway crossing = %v %v %v", crosses, possible, err)
	}
	if gw := d.spaces["lab-space"].Gateway; gw != "gwLab" {
		t.Fatalf("gateway = %q", gw)
	}
	if _, _, err := d.CrossesSpaces("ghost", "hostA"); err == nil {
		t.Fatal("unknown from-host accepted")
	}
	if _, _, err := d.CrossesSpaces("hostA", "ghost"); err == nil {
		t.Fatal("unknown to-host accepted")
	}
}
