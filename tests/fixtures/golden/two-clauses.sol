BB...W...W......B
W.W.......B.....W
.WBBWBWBWBWBWWBB.
.WBBWBWBWBWBWWBB.
B.W..W.......B..B
WB............W.W
