# the three-clause solution with (3,3) and (14,14) flipped: breaks the
# clue on skewer 2 and the fourth window of column 14
BB...W...W......B
W.W.......B.....W
.WWBWBWBWBWBWWBB.
.WBBWBWBWBWBWWBB.
B.W......W...B..B
WB............W.W
...WB............
.....WBWB........
..........BWB....
...............W.
.WBBWBWBWBWBWWBB.
.WBBWBWBWBWBWWBB.
B....W....B...W.B
W.....B......W..W
